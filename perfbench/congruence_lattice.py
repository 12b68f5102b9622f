"""Workload ``congruence_lattice``: principal congruences, whole lattices,
permutability, quotients and permutability audits on algebras whose
congruences are known from theory.

Two groups of algebras share each round.  "Lattice-wide" ones are chains
under meet (sizes 6 to 9 for the whole lattice, 10 as well for the other
requests), whose 2^(n-1) interval partitions make the pairwise join closure
dominate.  "Carrier-wide" ones have few congruences on larger carriers:
Z2^4, S3 x Z2 and Z3 x Z3 built with ``product_algebra`` from relabeled
factors, a relabeled Z12, S3, the order-5 loop and the subtraction
quasigroup mod 5; there principal generation and the re-verification in
``Congruence`` dominate; four more relabeled copies of Z3 x Z3 are asked
for their whole lattice only.  ``find_maltsev_term`` is never called.
``permutability_audit`` runs on Z2, Z3, Z4, the subtraction quasigroup mod
3, the xor algebra and chain3; chain4 is left out for run time (its audit
ran past 7 minutes).
"""

from __future__ import annotations

import itertools
import random

from . import inputs, known
from .harness import Request, SetupError, load_document

PRINCIPAL_PER_ROUND = 4
PERMUTE_PAIRS = 16
QUOTIENTS_PER_ROUND = 2
KEPT_CONGRUENCES = 8


class Subject:
    """One algebra: its document, maltsev's object, and what theory says.
    ``perm`` says how the document was relabeled: element x of the algebra as
    first written is called perm[x]."""

    whole_lattice = True  # whether all_congruences is requested

    def __init__(self, api, ctx, d: dict, perm: list[int], alg=None):
        self.doc = d
        self.name = d["name"]
        self.perm = perm
        self.alg = alg if alg is not None else load_document(api, ctx, d, d["name"])

    def principal(self, a: int, b: int) -> tuple:
        raise NotImplementedError

    def congruences(self) -> set[tuple]:
        raise NotImplementedError

    def unrelabeled(self, labels: tuple) -> tuple:
        return known.canonical([labels[self.perm[x]] for x in range(len(self.perm))])


class Chain(Subject):
    """A chain under meet, relabeled so that ``order`` lists it bottom up."""

    def __init__(self, api, ctx, rng, n: int):
        d, perm = inputs.random_relabel(rng, inputs.chain(n))
        super().__init__(api, ctx, d, perm)
        self.order = perm  # element i of the original chain is called perm[i]
        self.whole_lattice = n < 10  # all_congruences(chain10) takes seconds

    def principal(self, a, b):
        return known.chain_principal(self.order, a, b)

    def congruences(self):
        return known.chain_congruences(self.order)


class Group(Subject):
    """Congruences of a group are the coset partitions of normal subgroups."""

    def principal(self, a, b):
        return known.group_principal(self.doc, a, b)

    def congruences(self):
        return known.group_congruences(self.doc)


class PrimeQuasigroup(Subject):
    """Blocks of a quasigroup congruence all have one size, so a quasigroup
    (or loop) of prime order has only the two trivial congruences."""

    def principal(self, a, b):
        n = self.doc["size"]
        return tuple(range(n)) if a == b else (0,) * n

    def congruences(self):
        n = self.doc["size"]
        return {tuple(range(n)), (0,) * n}


def as_doc(alg) -> dict:
    return {
        "name": alg.name,
        "size": alg.size,
        "operations": [
            {"symbol": s, "arity": t.arity, "table": list(t.entries)} for s, t in alg.tables
        ],
    }


def product_subject(api, ctx, rng, name: str, factors: list[dict]) -> Group:
    """Relabeled factors multiplied with maltsev's product_algebra; the result
    is compared with the benchmark's own product table."""
    relabeled = [inputs.random_relabel(rng, f) for f in factors]
    algs = [load_document(api, ctx, d, d["name"]) for d, _ in relabeled]
    (expected, perm), alg = relabeled[0], algs[0]
    for (d, p), a in zip(relabeled[1:], algs[1:]):
        m = d["size"]
        perm = [perm[x // m] * m + p[x % m] for x in range(len(perm) * m)]
        expected = inputs.product(expected, d)
        with ctx.tracer.span("algebras.product_algebra"):
            alg = api.algebras.product_algebra(alg, a)
    got = as_doc(alg)
    if got["size"] != expected["size"] or {o["symbol"]: o["table"] for o in got["operations"]} != {
        o["symbol"]: o["table"] for o in expected["operations"]
    }:
        raise SetupError(f"product_algebra table differs for {name}")
    expected["name"] = name
    return Group(api, ctx, expected, perm, alg)


def labels(congruence) -> tuple:
    return known.canonical(congruence.partition.block_of)


def principal_request(api, s: Subject, a: int, b: int) -> Request:
    expected = s.principal(a, b)

    def run(tr):
        with tr.span("congruences.principal_congruence"):
            return api.congruences.principal_congruence(s.alg, a, b)

    def check(theta):
        return None if labels(theta) == expected else f"{s.name}: Cg({a},{b}) wrong"

    return Request("principal", run, check)


def lattice_request(api, s: Subject, expected: set[tuple]) -> Request:
    def run(tr):
        with tr.span("congruences.all_congruences") as span:
            lattice = api.congruences.all_congruences(s.alg, max_size=16)
        span.set(size=len(lattice))
        return lattice

    def check(lattice):
        got = [labels(c) for c in lattice]
        if len(got) != len(expected) or set(got) != expected:
            return f"{s.name}: {len(got)} congruences, theory gives {len(expected)}"
        return None

    return Request("lattice", run, check)


def permute_request(api, s: Subject, pairs: list, expected: list[bool]) -> Request:
    def run(tr):
        out = []
        for theta, phi in pairs:
            with tr.span("congruences.permute"):
                out.append(api.congruences.permute(s.alg, theta, phi))
        return out

    def check(got):
        return None if got == expected else f"{s.name}: permutability of a pair wrong"

    return Request("permute", run, check)


def quotient_request(api, s: Subject, theta, expected_labels: tuple) -> Request:
    def run(tr):
        with tr.span("congruences.quotient"):
            return api.congruences.quotient(s.alg, theta)

    def check(q):
        if not known.is_homomorphic_image(s.doc, expected_labels, as_doc(q)):
            return f"{s.name}: quotient is not the image of the natural map"
        return None

    return Request("quotient", run, check)


def audit_request(api, name: str, alg, passes: bool) -> Request:
    def run(tr):
        with tr.span("termsearch.permutability_audit"):
            return api.termsearch.permutability_audit(alg)

    def check(failures):
        if (not failures) != passes:
            return f"{name}: audit {'failed' if failures else 'passed'}, theory says otherwise"
        return None

    return Request("audit", run, check)


def relabeled(rng, cls, api, ctx, base: dict) -> Subject:
    d, perm = inputs.random_relabel(rng, base)
    return cls(api, ctx, d, perm)


def spread_out(items: list, k: int) -> list:
    """k of the items, evenly spaced through the list."""
    return [items[i * len(items) // k] for i in range(k)] if len(items) > k else list(items)


def build(api, rng: random.Random, ctx):
    """The seed draws the relabelings and nothing else: which congruences,
    pairs and quotients a round asks for is fixed on the algebras as first
    written, then carried through the relabeling, so every seed asks for the
    same amount of work."""
    z2, z3, s3 = inputs.cyclic_group(2), inputs.cyclic_group(3), inputs.symmetric_group_3()
    subjects = [Chain(api, ctx, rng, n) for n in (6, 7, 8, 9, 10)]
    subjects += [
        product_subject(api, ctx, rng, "Z2^4", [z2, z2, z2, z2]),
        product_subject(api, ctx, rng, "S3xZ2", [s3, z2]),
        product_subject(api, ctx, rng, "Z3xZ3", [z3, z3]),
        relabeled(rng, Group, api, ctx, inputs.cyclic_group(12)),
        relabeled(rng, Group, api, ctx, s3),
        relabeled(rng, PrimeQuasigroup, api, ctx, inputs.loop5()),
        relabeled(rng, PrimeQuasigroup, api, ctx, inputs.subtraction_quasigroup(5)),
    ]
    # Four more copies of Z3 x Z3, each relabeled apart, are asked only for
    # their whole lattice: with them the 90th percentile falls inside one kind
    # of request (about 45 ms) instead of between two.
    lattice_only = [product_subject(api, ctx, rng, f"Z3xZ3-{k}", [z3, z3]) for k in range(4)]
    lattice_only = [(s, s.congruences()) for s in lattice_only]
    audits = []
    for base, passes in (
        (z2, True),
        (z3, True),
        (inputs.cyclic_group(4), True),
        (inputs.subtraction_quasigroup(3), True),
        (inputs.xor_mu(), True),
        (inputs.chain(3), False),
    ):
        d = inputs.random_relabel(rng, base)[0]
        d["name"] = f"audit-{d['name']}"
        audits.append(audit_request(api, d["name"], load_document(api, ctx, d, d["name"]), passes))

    per_subject = []
    for s in subjects:
        expected = s.congruences()
        kept = spread_out(sorted(expected, key=s.unrelabeled), KEPT_CONGRUENCES)
        objects = []
        for lab in kept:
            with ctx.tracer.span("congruences.Congruence"):
                objects.append(
                    api.congruences.Congruence(s.alg, api.congruences.Partition.from_labels(lab))
                )
        n = s.doc["size"]
        pairs = list(itertools.combinations(range(n), 2))
        random.Random(n).shuffle(pairs)  # one fixed order, whatever the seed
        pairs = [(s.perm[a], s.perm[b]) for a, b in pairs]
        per_subject.append((s, expected, list(zip(kept, objects)), pairs))

    def one_round(r: int):
        for i, (s, expected, kept, pairs) in enumerate(per_subject):
            if s.whole_lattice:
                yield lattice_request(api, s, expected)
            for k in range(r * PRINCIPAL_PER_ROUND, (r + 1) * PRINCIPAL_PER_ROUND):
                yield principal_request(api, s, *pairs[k % len(pairs)])
            chosen = [
                (kept[(j + r) % len(kept)], kept[(3 * j + 1) % len(kept)]) for j in range(PERMUTE_PAIRS)
            ]
            yield permute_request(
                api,
                s,
                [(p[1], q[1]) for p, q in chosen],
                [known.permutes(p[0], q[0]) for p, q in chosen],
            )
            for j in range(r * QUOTIENTS_PER_ROUND, (r + 1) * QUOTIENTS_PER_ROUND):
                lab, theta = kept[j % len(kept)]
                yield quotient_request(api, s, theta, lab)
            if i < len(audits):
                yield audits[i]
        for s, expected in lattice_only:
            yield lattice_request(api, s, expected)

    warmup = [principal_request(api, subjects[-1], 0, 1)]
    return (list(one_round(r)) for r in itertools.count()), warmup
