"""Workload ``word_problem``: text requests against the free-algebra layers.

Each pair request parses two terms, decides their equality, normalizes and
formats the first, maps both into the free group and combines the images
with free-group and heap operations.  A round of 40 requests holds 32 small
axiom-walk pairs (16 of 40 and 16 of 100 nodes), 3 large terms of 29000
nodes with many shared subterms, 3 ``count_M(3, 2, oracle=True)``
enumerations and 2 deep chains of depth 500 to 3000.  No finite-algebra
layer is called, so this is the bypass workload for changes there.

The two small sizes put the median inside the 100-node pairs, a quarter of
the way up, and the 90th percentile a third of the way into the large
terms: on a shared machine whose speed changes by half from one second to
the next, a percentile inside one kind of request stays put.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from . import inputs, known
from .harness import Request

ROUND = "sSsSsLSsSsSCsSsDSsLSsSsCSsSsSsLsSsDSCsSS"  # 40 slots: s/S small 40/100 nodes
COUNT_M = (3, 2)  # 27003 terms enumerated, 2943 classes
KINDS = {"s": "small40", "S": "small100", "L": "large", "D": "deep"}


def pair_request(api, kind: str, spec: dict, names: dict[str, str] | None = None) -> Request:
    """The pair in ``spec`` with its variables renamed by ``names``; answers
    are compared after renaming back."""
    terms, rewriting, homs, words = api.terms, api.rewriting, api.homomorphisms, api.words
    names = names or {}
    rename = str.maketrans(names)
    lhs, rhs, normal_form = (spec[key].translate(rename) for key in ("lhs", "rhs", "normal_form"))
    back = {new: old for old, new in names.items()}

    def letters(word) -> tuple:
        return tuple((back.get(l.gen, l.gen), l.sign) for l in word.letters)

    def run(tr):
        with tr.span("terms.parse_term", nodes=spec["lhs_nodes"]):
            t = terms.parse_term(lhs)
        with tr.span("terms.parse_term", nodes=spec["rhs_nodes"]):
            s = terms.parse_term(rhs)
        with tr.span("rewriting.equal_in_free"):
            equal = rewriting.equal_in_free(t, s)
        with tr.span("rewriting.normalize", nodes_in=spec["lhs_nodes"], nodes_out=spec["nf_nodes"]):
            nf = rewriting.normalize(t)
        with tr.span("terms.format_term", nodes=spec["nf_nodes"]):
            text = terms.format_term(nf)
        with tr.span("homomorphisms.hom_to_group", letters=len(spec["lhs_word"])):
            w = homs.hom_to_group(t)
        with tr.span("homomorphisms.hom_to_group", letters=len(spec["rhs_word"])):
            ws = homs.hom_to_group(s)
        with tr.span("words.fg_inv", letters=len(spec["rhs_word"])):
            inverse = words.fg_inv(ws)
        with tr.span("words.fg_mul", letters=len(spec["quotient_word"])):
            quotient = words.fg_mul(w, inverse)
        with tr.span("words.heap_mu", letters=len(spec["heap_word"])):
            heap = words.heap_mu(words.HeapWord(w), words.HeapWord(ws), words.HeapWord(w))
        return equal, text, w, ws, quotient, heap

    def check(out):
        equal, text, w, ws, quotient, heap = out
        if equal != spec["equal"]:
            return f"equal_in_free gave {equal}, expected {spec['equal']}"
        if text != normal_form:
            return "normal form differs from the one the input was built from"
        if letters(w) != spec["lhs_word"] or letters(ws) != spec["rhs_word"]:
            return "hom_to_group image differs from the reduced word"
        if letters(quotient) != spec["quotient_word"]:
            return "fg_mul/fg_inv result differs from the reduced word"
        if letters(heap.word) != spec["heap_word"]:
            return "heap_mu result differs from the reduced word"
        return None

    return Request(kind, run, check)


def count_request(api, m: int, n: int) -> Request:
    expected = known.count_normal_forms(m, n)

    def run(tr):
        with tr.span("rewriting.count_M"):
            return api.rewriting.count_M(m, n, oracle=True)

    def check(value):
        return None if value == expected else f"count_M({m},{n}) gave {value}, expected {expected}"

    return Request("count_m", run, check)


def build(api, rng: random.Random, ctx) -> tuple[Iterator[list[Request]], list[Request]]:
    """Slots are filled from seeded base inputs, each reused under a different
    renaming of x, y, z, w, so no input text repeats until a run has sent
    each base under all 24 renamings (1536 requests of each small size),
    while every copy costs what its base costs."""
    bases = {
        "s": [inputs.small_pair(rng, rng.random() < 0.75, 16, 3) for _ in range(64)],
        "S": [inputs.small_pair(rng, rng.random() < 0.75, 40, 7) for _ in range(64)],
        "L": [inputs.large_pair(rng) for _ in range(4)],
        "D": [inputs.deep_pair(rng, rng.randint(500, 3000)) for _ in range(4)],
    }
    renamings = [dict(zip(inputs.VARS, p)) for p in itertools.permutations(inputs.VARS)]
    rng.shuffle(renamings)
    count = count_request(api, *COUNT_M)
    used = dict.fromkeys(bases, 0)

    def request(slot: str) -> Request:
        if slot == "C":
            return count
        k, pool = used[slot], bases[slot]
        used[slot] += 1
        names = renamings[(k // len(pool)) % len(renamings)]
        return pair_request(api, KINDS[slot], pool[k % len(pool)], names)

    rounds = ([request(slot) for slot in ROUND] for _ in itertools.count())
    warmup = [pair_request(api, "small40", bases["s"][0]), count_request(api, 2, 1)]
    return rounds, warmup
