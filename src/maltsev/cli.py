"""Command-line entry point.

Exit codes: 0 = true/success, 1 = false/counterexample (printed), 2 = usage
or data error, including any unexpected internal error.  Text output is
human-readable; --format json emits one JSON record per line with sorted
keys, so identical configurations (including --seed) produce byte-identical
output.  The MW_BUDGET environment variable overrides the default
enumeration (10**6) and search (10**7) budgets; explicit --budget flags win
over it.  Either must be a positive integer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from . import congruences as cong
from . import homomorphisms as homs
from . import rewriting, sampling, words
from .algebras import (
    check_identity,
    dump_algebra,
    is_maltsev_operation,
    load_algebra,
    maltsev_from_group,
    maltsev_from_left_loop,
    maltsev_from_quasigroup,
    parse_identity,
    with_operation,
)
from .errors import MaltsevError, NotACongruenceError
from .terms import IDENT_RE, MALTSEV_SIGNATURE, format_term, parse_term
from .termsearch import find_maltsev_term
from .words import HeapWord, format_word, parse_letters, reduce

ENUM_BUDGET = 10**6
SEARCH_BUDGET = 10**7


class Report:
    """Collects text lines and one machine-readable record per command."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.record: dict = {}

    def text(self, line: str):
        self.lines.append(line)

    def emit(self, **fields):
        self.record.update(fields)

    def render(self) -> str:
        if self.fmt == "json":
            return json.dumps(self.record, sort_keys=True, separators=(",", ":"))
        return "\n".join(self.lines)


# ---------------------------------------------------------------------------
# The command table.  Each leaf command is declared once, by the decorator
# on its handler: its name ("fg mul" for a subcommand of a group), its
# argparse options and, for a top-level command, its help line.  Commands
# are listed in --help in the order they are declared here.  A handler gets
# the parsed namespace and a Report, fills the report (dispatch adds the
# command name) and returns the exit code.

COMMANDS: list[tuple] = []

GROUP_HELP = {
    "fg": "free group on reduced words",
    "heap": "free heap inside the free group",
    "hom": "homomorphisms out of the free algebra",
    "algebra": "finite-algebra analysis",
}


def option(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def required(*flags: str, **kwargs) -> list[tuple]:
    return [option(flag, required=True, **kwargs) for flag in flags]


def command(name: str, *options: tuple, help: str | None = None):
    def register(handler):
        COMMANDS.append((name, help, options, handler))
        return handler

    return register


FILE = option("--file", required=True)
BUDGET = option("--budget", type=int, default=None)


def _budget(args: argparse.Namespace, default: int) -> int:
    """An explicit --budget wins over MW_BUDGET, which wins over the default.
    A given budget must be a positive integer."""
    if args.budget is not None:
        source, raw = "--budget", args.budget
    elif "MW_BUDGET" in os.environ:
        source, raw = "MW_BUDGET", os.environ["MW_BUDGET"]
    else:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise MaltsevError(f"{source} must be a positive integer, got {raw!r}")
    return value


def _read_algebra(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra(json.load(fh))


def _parse_map(text: str | None) -> dict[str, str] | None:
    if text is None:
        return None
    out = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        var_name, eq, gen = chunk.partition("=")
        var_name = var_name.strip()
        if not (eq and var_name):
            raise MaltsevError(f"bad mapping entry {chunk!r}, expected var=gen")
        if var_name in out:
            raise MaltsevError(f"bad mapping entry {chunk!r}: {var_name!r} is already mapped")
        out[var_name] = gen.strip()
    return out


def _word(text: str) -> words.ReducedWord:
    return reduce(parse_letters(text))


def _heap_word(text: str) -> HeapWord:
    return HeapWord(_word(text))


def _emit_word(rep: Report, w) -> int:
    rep.text(format_word(w))
    rep.emit(word=format_word(w), length=len(w))
    return 0


@command("normalize", option("--term", required=True), help="normal form of a term")
def cmd_normalize(args, rep: Report) -> int:
    t = parse_term(args.term, MALTSEV_SIGNATURE)
    nf = rewriting.normalize(t)
    rep.text(format_term(nf))
    rep.emit(input=format_term(t), normal_form=format_term(nf))
    return 0


@command("equal", *required("--lhs", "--rhs"), help="word problem for two terms")
def cmd_equal(args, rep: Report) -> int:
    lhs = parse_term(args.lhs, MALTSEV_SIGNATURE)
    rhs = parse_term(args.rhs, MALTSEV_SIGNATURE)
    # Normal forms are canonical and format_term is injective, so equal
    # texts are equal elements of the free algebra.
    lhs_nf = format_term(rewriting.normalize(lhs))
    rhs_nf = format_term(rewriting.normalize(rhs))
    same = lhs_nf == rhs_nf
    rep.text("true" if same else "false")
    if not same:
        rep.text(f"lhs normal form: {lhs_nf}")
        rep.text(f"rhs normal form: {rhs_nf}")
    rep.emit(equal=same, lhs_normal_form=lhs_nf, rhs_normal_form=rhs_nf)
    return 0 if same else 1


@command(
    "count-m",
    *required("--generators", "--level", type=int),
    option("--oracle", action="store_true"),
    BUDGET,
    help="count free-algebra elements by stratum",
)
def cmd_count_m(args, rep: Report) -> int:
    m, n = args.generators, args.level
    budget = _budget(args, ENUM_BUDGET)
    if args.oracle or m < 1 or n < 0:  # the budget bounds the oracle; count_M rejects the rest
        value = rewriting.count_M(m, n, oracle=args.oracle, budget=budget)
    else:  # stop at the first level too long for str(), before computing the next one
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before Python 3.10.7
        too_long = 10**limit if limit else float("inf")
        for level, value in zip(range(n + 1), rewriting.count_M_levels(m)):
            if value >= too_long:
                raise MaltsevError(f"the count at level {level} has more than {limit} digits")
    rep.text(str(value))
    rep.emit(generators=m, level=n, oracle=args.oracle, count=str(value))
    return 0


@command("confluence-report", help="critical pairs and joinability")
def cmd_confluence_report(args, rep: Report) -> int:
    report = rewriting.check_confluence()
    pairs = []
    for pair, joinable in report.entries:
        peak, left, right = map(format_term, (pair.peak, pair.left_result, pair.right_result))
        position = list(pair.position)
        pairs.append(
            {"peak": peak, "left": left, "right": right, "position": position, "joinable": joinable}
        )
        rep.text(
            f"critical pair at {position}: peak {peak} -> {left} | {right}"
            f" : {'joinable' if joinable else 'NOT JOINABLE'}"
        )
    verdict = report.locally_confluent
    rep.text(f"critical pairs: {len(pairs)}")
    rep.text(f"locally confluent: {'true' if verdict else 'false'}")
    rep.emit(pairs=pairs, locally_confluent=verdict)
    return 0 if verdict else 1


@command("fg reduce", option("--word", required=True))
def cmd_fg_reduce(args, rep: Report) -> int:
    return _emit_word(rep, _word(args.word))


@command("fg mul", *required("--a", "--b"))
def cmd_fg_mul(args, rep: Report) -> int:
    return _emit_word(rep, words.fg_mul(_word(args.a), _word(args.b)))


@command("fg inv", option("--a", required=True))
def cmd_fg_inv(args, rep: Report) -> int:
    return _emit_word(rep, words.fg_inv(_word(args.a)))


@command("heap mu", *required("--a", "--b", "--c"))
def cmd_heap_mu(args, rep: Report) -> int:
    w = words.heap_mu(_heap_word(args.a), _heap_word(args.b), _heap_word(args.c))
    rep.text(format_word(w))
    rep.emit(word=format_word(w), stratum=w.stratum)
    return 0


@command("heap member", option("--word", required=True))
def cmd_heap_member(args, rep: Report) -> int:
    w = _word(args.word)
    member = words.is_heap_word(w)
    rep.text("true" if member else "false")
    rep.emit(word=format_word(w), member=member)
    return 0 if member else 1


@command("heap group-ops", option("--base", required=True), option("--u"), option("--v"))
def cmd_heap_group_ops(args, rep: Report) -> int:
    if args.v is not None and args.u is None:
        raise MaltsevError("--v needs --u: the product u * v has no u")
    group = words.heap_group_ops(_heap_word(args.base))
    rep.text(f"identity: {format_word(group.identity)}")
    rep.emit(identity=format_word(group.identity))
    if args.u is not None:
        u = _heap_word(args.u)
        inverse = format_word(group.inv(u))
        rep.text(f"inv(u): {inverse}")
        rep.emit(inverse_u=inverse)
        if args.v is not None:
            product = format_word(group.mul(u, _heap_word(args.v)))
            rep.text(f"u * v: {product}")
            rep.emit(product_uv=product)
    return 0


@command("hom group", option("--term", required=True), option("--map"))
def cmd_hom_group(args, rep: Report) -> int:
    t = parse_term(args.term, MALTSEV_SIGNATURE)
    return _emit_word(rep, homs.hom_to_group(t, _parse_map(args.map)))


@command("hom separate", *required("--term", "--witness"))
def cmd_hom_separate(args, rep: Report) -> int:
    if not IDENT_RE.fullmatch(args.witness) or args.witness in MALTSEV_SIGNATURE:
        raise MaltsevError(f"--witness must be a variable name, got {args.witness!r}")
    value = homs.separating_hom(parse_term(args.term, MALTSEV_SIGNATURE), args.witness)
    rep.text(str(value))
    rep.emit(value=value, witness=args.witness)
    return 0


@command("algebra check-identity", FILE, option("--identity", required=True))
def cmd_check_identity(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    failure = check_identity(alg, parse_identity(args.identity, alg.signature))
    if failure is None:
        rep.text("holds")
        rep.emit(holds=True)
        return 0
    rep.text(f"counterexample: {failure}")
    rep.emit(holds=False, counterexample=failure)
    return 1


@command("algebra maltsev-check", FILE, option("--symbol", default="mu"))
def cmd_maltsev_check(args, rep: Report) -> int:
    ok = is_maltsev_operation(_read_algebra(args.file), args.symbol)
    rep.text("true" if ok else "false")
    rep.emit(symbol=args.symbol, maltsev=ok)
    return 0 if ok else 1


DERIVATIONS = {
    "group": maltsev_from_group,
    "left-loop": maltsev_from_left_loop,
    "quasigroup": maltsev_from_quasigroup,
}


@command(
    "algebra derive-maltsev",
    FILE,
    option("--from", dest="source", choices=DERIVATIONS, required=True),
)
def cmd_derive_maltsev(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    derived = with_operation(alg, "mu", DERIVATIONS[args.source](alg))
    verified = is_maltsev_operation(derived, "mu")
    doc = dump_algebra(derived)
    rep.text(json.dumps(doc, indent=2, sort_keys=True))
    rep.text(f"verified maltsev: {'true' if verified else 'false'}")
    rep.emit(algebra=doc, verified=verified)
    return 0 if verified else 1


@command(
    "algebra congruences",
    FILE,
    option("--check-permutability", action="store_true"),
    option("--max-size", type=int, default=cong.LATTICE_GUARD),
)
def cmd_congruences(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    if cong.LATTICE_GUARD < alg.size <= args.max_size:
        rep.text(
            f"warning: carrier size {alg.size} above the default guard of {cong.LATTICE_GUARD};"
            " principal-congruence generation scans all element pairs and"
            " may be slow"
        )
    lattice = cong.all_congruences(alg, max_size=args.max_size)
    partitions = [cong.format_partition(c.partition) for c in lattice]
    for p in partitions:
        rep.text(p)
    rep.text(f"count: {len(partitions)}")
    rep.emit(congruences=partitions)
    if not args.check_permutability:
        return 0
    failing = next(
        (pair for pair in itertools.combinations(lattice, 2) if not cong.permute(alg, *pair)),
        None,
    )
    rep.emit(permutable=failing is None)
    if failing is None:
        rep.text("all congruence pairs permute")
        return 0
    counterexample = [cong.format_partition(theta.partition) for theta in failing]
    rep.text(f"non-permuting pair: {counterexample[0]}  {counterexample[1]}")
    rep.emit(counterexample=counterexample)
    return 1


@command("algebra principal", FILE, option("--pair", required=True))
def cmd_principal(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    try:
        a, b = (int(x) for x in args.pair.split(","))
    except ValueError:
        raise MaltsevError(
            f"--pair must be two comma-separated elements, got {args.pair!r}"
        ) from None
    theta = cong.principal_congruence(alg, a, b)
    rep.text(cong.format_partition(theta.partition))
    rep.emit(pair=[a, b], congruence=cong.format_partition(theta.partition))
    return 0


@command("algebra quotient", FILE, option("--partition", required=True))
def cmd_quotient(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    p = cong.parse_partition(args.partition, alg.size)
    try:
        theta = cong.Congruence(alg, p)
    except NotACongruenceError as exc:
        rep.text(str(exc))
        rep.emit(congruence=False)
        return 1
    doc = dump_algebra(cong.quotient(alg, theta))
    rep.text(json.dumps(doc, indent=2, sort_keys=True))
    rep.emit(congruence=True, algebra=doc)
    return 0


@command("algebra maltsev-term", FILE, BUDGET)
def cmd_maltsev_term(args, rep: Report) -> int:
    alg = _read_algebra(args.file)
    outcome = find_maltsev_term(alg, budget=_budget(args, SEARCH_BUDGET))
    rep.emit(status=outcome.status, visited=outcome.visited)
    if outcome.status == "found":
        text = format_term(outcome.term)
        rep.text(text)
        rep.text("verified: true")
        rep.emit(term=text, verified=True)
        return 0
    rep.text(outcome.status)
    return 1 if outcome.status == "none" else 2


@command(
    "selftest",
    option("--iterations", type=int, default=500),
    help="seeded randomized property checks",
)
def cmd_selftest(args, rep: Report) -> int:
    """Randomized invariants at a quick desk scale, reproducible by seed."""
    if args.iterations < 1:
        raise MaltsevError(f"--iterations must be a positive integer, got {args.iterations}")
    rng = random.Random(args.seed)
    gens = ("x", "y", "z")

    def strategy_independence():
        t = sampling.random_term(rng, gens, 6)
        inner = _strategy_fixpoint(t, rewriting.rewrite_once)
        outer = _strategy_fixpoint(t, rewriting.rewrite_once_outermost)
        return inner == outer == rewriting.normalize(t)

    def axiom_walk_equivalence():
        t = sampling.random_term(rng, gens, 4)
        return rewriting.equal_in_free(t, sampling.axiom_walk(rng, t, 8, gens))

    def reduction_order_independence():
        raw = list(sampling.random_letters(rng, gens, 12))
        expected = words.reduce(raw)
        # A list, not a generator: all three deletions draw from rng.
        return all([_random_deletion(rng, raw) == expected for _ in range(3)])

    def heap_para_associativity():
        a, b, c, d, e = (sampling.random_heap_word(rng, gens, 3) for _ in range(5))
        lhs = words.heap_mu(words.heap_mu(a, b, c), d, e)
        mid = words.heap_mu(a, words.heap_mu(d, c, b), e)
        rhs = words.heap_mu(a, b, words.heap_mu(c, d, e))
        return lhs == mid == rhs

    def hom_normalization_invariance():
        t = sampling.random_term(rng, gens, 5)
        return homs.hom_to_group(t) == homs.hom_to_group(rewriting.normalize(t))

    # The checks run in this order on one rng; each stops at its first
    # failing trial.
    checks = [
        (name, all(trial() for _ in range(args.iterations)))
        for name, trial in (
            ("strategy-independence", strategy_independence),
            ("axiom-walk-equivalence", axiom_walk_equivalence),
            ("reduction-order-independence", reduction_order_independence),
            ("heap-para-associativity", heap_para_associativity),
            ("hom-normalization-invariance", hom_normalization_invariance),
        )
    ]

    all_ok = all(flag for _, flag in checks)
    for name, flag in checks:
        rep.text(f"{'PASS' if flag else 'FAIL'} {name}")
    rep.text(f"selftest: {'pass' if all_ok else 'fail'} (seed {args.seed})")
    rep.emit(
        seed=args.seed,
        iterations=args.iterations,
        results={name: flag for name, flag in checks},
        passed=all_ok,
    )
    return 0 if all_ok else 1


def _strategy_fixpoint(t, step):
    while True:
        r = step(t)
        if r is None:
            return t
        t = r


def _random_deletion(rng, raw):
    """Cancel adjacent inverse pairs in random order until none remain."""
    letters = list(raw)
    while True:
        sites = [
            i
            for i in range(len(letters) - 1)
            if letters[i].gen == letters[i + 1].gen
            and letters[i].sign == -letters[i + 1].sign
        ]
        if not sites:
            return words.ReducedWord(tuple(letters))
        i = rng.choice(sites)
        del letters[i : i + 2]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maltsev",
        description="Universal-algebra workbench: free-algebra word problem, "
        "free groups and heaps, finite-algebra congruence analysis.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    top = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for name, help_text, options, handler in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            p = top.add_parser(group, help=GROUP_HELP[group])
            groups[group] = p.add_subparsers(dest="subcommand", required=True)
        p = groups[group].add_parser(leaf) if group else top.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler, name=name)
    return parser


def dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """Run a parsed command.  Any exception it raises, expected or not, is
    reported as exit 2 with an output holding only the error."""
    rep = Report(args.format)
    try:
        code = args.handler(args, rep)
    except Exception as exc:
        code, rep = 2, Report(args.format)
        rep.text(f"error: {exc}")
        rep.emit(error=str(exc))
    rep.emit(command=args.name)
    return code, rep.render()


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse argv and run the command; returns (exit code, output)."""
    return dispatch(build_parser().parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    code, output = run(argv)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
