"""Workload ``term_search``: ``find_maltsev_term`` on algebras whose answer is
known.

S3, the one multi-second search, is the first round on its own.  Every
later round holds relabeled copies of algebras that have a cancellation term
(cyclic groups Z2..Z8, the idempotent quasigroups 2x-y mod 3, 5, 7, the
subtraction quasigroup, the order-5 loop, the xor algebra), relabeled copies
of algebras that have none (multiplicative monoids of Z3, Z4, Z6; chains
under meet; chain and Boolean lattices), eight seeded two-element ternary
algebras, and a relabeled copy of one of two random three-element algebras
searched at a budget of 300 vectors.  The two-element algebras are drawn
from the 192 whose f(x,x,x) is not the negation of x (each search under
0.1 s).  Five copies of Z5 (next to the monoid of Z3, of about the same
cost) and four of 2x-y mod 7, each relabeled apart, make the median and the
90th percentile fall inside one kind of search.  Congruences are never
computed.  Searches that do not finish in minutes (budget 20000 on a random
three-element algebra, the multiplicative monoids of Z7 and Z9) are left out
for run time.  Each round's algebras are made and their documents written
between requests, outside the requests' timing.
"""

from __future__ import annotations

import itertools
import random

from . import inputs, known
from .harness import Request, load_document

HAVE_TERM = (
    [inputs.symmetric_group_3()]
    + [inputs.cyclic_group(n) for n in (2, 3, 4, 5, 5, 5, 5, 5, 6, 7, 8)]
    + [inputs.idempotent_quasigroup(n) for n in (3, 5, 7, 7, 7, 7)]
    + [inputs.subtraction_quasigroup(3), inputs.loop5(), inputs.xor_mu()]
)
HAVE_NONE = (
    [inputs.multiplicative_monoid(n) for n in (3, 4, 6)]
    + [inputs.chain(n) for n in (3, 4, 5, 6)]
    + [inputs.chain_lattice(n) for n in (2, 3)]
    + [inputs.boolean_lattice_4()]
)
TWO_ELEMENT_PER_ROUND = 8
CAPPED_BUDGET = 300


def negated_diagonal(code: int) -> bool:
    """f(0,0,0) = 1 and f(1,1,1) = 0 for the table with these bits.  Searches
    on these 64 run from 2 ms to 3 s, so which of them a seed drew would set
    the run's cost; S3 stands for the multi-level searches instead."""
    return code & 1 == 1 and code & 128 == 0


def same_search(code: int) -> list[int]:
    """The two-element tables whose searches do the same work as ``code``'s:
    those that differ from it only by the order of f's arguments and by
    swapping 0 and 1."""
    table = [(code >> i) & 1 for i in range(8)]
    out = set()
    for order in itertools.permutations(range(3)):
        for swap in (0, 1):
            out.add(
                sum(
                    (table[known.flat_index(2, [args[k] ^ swap for k in order])] ^ swap) << known.flat_index(2, args)
                    for args in itertools.product(range(2), repeat=3)
                )
            )
    return sorted(out)


def as_general(term) -> tuple:
    """maltsev's Term object in the checker's ("name", args) form."""
    if hasattr(term, "args"):
        return (term.symbol, tuple(as_general(a) for a in term.args))
    return (term.name, ())


def search_request(api, alg, d: dict, expected: str, budget: int | None = None) -> Request:
    """expected: "found" or "none" by theory; "decide" for two-element
    algebras (a "none" is confirmed by closing the ternary clone); "capped"
    for a budgeted search (an exhausted budget is confirmed by a closure that
    outgrows it)."""
    name = "termsearch.find_maltsev_term" + (".capped" if budget else "")

    def run(tr):
        find = api.termsearch.find_maltsev_term
        with tr.span(name) as span:
            outcome = find(alg, budget) if budget else find(alg)
        span.set(visited=outcome.visited)
        return outcome

    def check(outcome):
        status = outcome.status
        if status == "found":
            if expected == "none":
                return f"{d['name']}: found a term, theory says none"
            if not known.is_maltsev_witness(d, as_general(outcome.term)):
                return f"{d['name']}: witness fails t(x,y,y)=x=t(y,y,x)"
            return None
        if status == "none":
            if expected == "found":
                return f"{d['name']}: none, theory says a term exists"
            if expected == "decide" and known.two_element_has_maltsev(d["operations"][0]["table"]):
                return f"{d['name']}: none, the ternary clone has a Maltsev operation"
            if expected == "capped":
                size, reached = known.pair_closure_size(d, budget)
                if size > budget or reached:
                    return f"{d['name']}: none, but the closure has {size} vectors"
            return None
        if status == "budget-exhausted" and expected == "capped":
            size, _ = known.pair_closure_size(d, budget)
            return None if size > budget else f"{d['name']}: budget exhausted at closure {size}"
        return f"{d['name']}: unexpected status {status}"

    kind = expected if expected in ("decide", "capped") else f"{expected}.{d['name']}"
    return Request(kind, run, check)


def build(api, rng: random.Random, ctx):
    """S3 (the one multi-second search) is the first round on its own, so
    that every run times it exactly once; rounds of the other searches
    follow.  Each round has its own relabeled copy of each family and of one
    of the two three-element algebras, and one member, drawn by the seed, of
    each of eight classes of two-element algebras (the rounds go through the
    33 classes in a fixed order).  Relabeling, and reordering the arguments,
    leave a search's work unchanged, so every seed asks for the same work."""

    def searches(families, expected, tag):
        out = []
        for base in families:
            d, _ = inputs.random_relabel(rng, base)
            out.append(search_request(api, load_document(api, ctx, d, f"{tag}-{d['name']}"), d, expected))
        return out

    def two_element(code: int) -> Request:
        d = {
            "name": f"t2-{code}",
            "size": 2,
            "operations": [{"symbol": "f", "arity": 3, "table": [(code >> i) & 1 for i in range(8)]}],
        }
        return search_request(api, load_document(api, ctx, d, d["name"]), d, "decide")

    s3 = searches(HAVE_TERM[:1], "found", "s3")
    # 33 classes of the 192 tables, in a fixed order.
    classes = sorted({tuple(same_search(c)) for c in range(256) if not negated_diagonal(c)})
    # Two random three-element algebras, drawn once and the same for every seed.
    capped_bases = [inputs.random_binary_3(random.Random(k), str(k)) for k in (1, 2)]

    def rounds():
        yield s3
        for r in itertools.count():
            rest = searches(HAVE_TERM[1:], "found", r) + searches(HAVE_NONE, "none", r)
            first = r * TWO_ELEMENT_PER_ROUND
            two = [
                two_element(rng.choice(classes[(first + j) % len(classes)]))
                for j in range(TWO_ELEMENT_PER_ROUND)
            ]
            d, _ = inputs.random_relabel(rng, capped_bases[r % len(capped_bases)])
            d["name"] = f"{d['name']}-{r}"
            capped = search_request(api, load_document(api, ctx, d, d["name"]), d, "capped", CAPPED_BUDGET)
            half = len(rest) // 2
            yield rest[:half] + two[:4] + [capped] + rest[half:] + two[4:]

    z2 = inputs.cyclic_group(2)
    warmup = [search_request(api, load_document(api, ctx, z2, "warmup-Z2"), z2, "found")]
    return rounds(), warmup
