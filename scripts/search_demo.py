#!/usr/bin/env python3
"""Run the ternary-term search over every bundled algebra (the documents
under algebras/, in file-name order) and, when a term is found, audit
congruence permutability of the algebra, its quotients and its square.

Usage: python scripts/search_demo.py
"""

import json
import sys
from pathlib import Path

from maltsev.algebras import load_algebra
from maltsev.terms import format_term
from maltsev.termsearch import find_maltsev_term, permutability_audit


def main() -> int:
    for path in sorted((Path(__file__).resolve().parents[1] / "algebras").glob("*.json")):
        name, alg = path.stem, load_algebra(json.loads(path.read_text()))
        outcome = find_maltsev_term(alg, budget=10**6)
        line = f"{name:>8}: {outcome.status}"
        if outcome.term is not None:
            line += f"  term = {format_term(outcome.term)}"
        line += f"  (visited {outcome.visited} vectors)"
        print(line)
        if outcome.status == "found":
            failures = permutability_audit(alg)
            verdict = "passed" if not failures else f"FAILED: {failures}"
            print(f"          permutability audit {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
