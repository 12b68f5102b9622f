"""Command-line entry point.

Exit codes: 0 = true/success, 1 = false/counterexample (printed), 2 = usage
or data error, including any unexpected internal error.  Text output is
human-readable; --format json emits one JSON record per line with sorted
keys, so identical configurations (including --seed) produce byte-identical
output.  The MW_BUDGET environment variable overrides the default budgets
of count_M's oracle and find_maltsev_term; explicit --budget flags win over
it.  Either must be a positive integer.

The module imports only the standard library and the error types; each
handler imports the engine it runs, so a command loads nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import MaltsevError, NotACongruenceError

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


def _budget(args: argparse.Namespace) -> dict:
    """{"budget": n} for an explicit --budget, else for MW_BUDGET; {} leaves
    the engine's default.  A given budget must be a positive integer."""
    if args.budget is not None:
        source, raw = "--budget", args.budget
    elif "MW_BUDGET" in os.environ:
        source, raw = "MW_BUDGET", os.environ["MW_BUDGET"]
    else:
        return {}
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise MaltsevError(f"{source} must be a positive integer, got {raw!r}")
    return {"budget": value}


def _read_algebra(path: str):
    from .algebras import load_algebra

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


def _word(text: str):
    from .words import parse_letters, reduce

    return reduce(parse_letters(text))


def _heap_word(text: str):
    from .words import HeapWord

    return HeapWord(_word(text))


def _emit_word(rep: Report, w) -> int:
    from .words import format_word

    rep.text(format_word(w))
    rep.emit(word=format_word(w), length=len(w))
    return 0


@command("normalize", option("--term", required=True), help="normal form of a term")
def cmd_normalize(args, rep: Report) -> int:
    from . import rewriting
    from .terms import MALTSEV_SIGNATURE, format_term, parse_term

    t = parse_term(args.term, MALTSEV_SIGNATURE)
    nf = rewriting.normalize(t)
    rep.text(format_term(nf))
    rep.emit(input=format_term(t), normal_form=format_term(nf))
    return 0


@command("equal", *required("--lhs", "--rhs"), help="word problem for two terms")
def cmd_equal(args, rep: Report) -> int:
    from . import rewriting
    from .terms import MALTSEV_SIGNATURE, format_term, parse_term

    lhs = parse_term(args.lhs, MALTSEV_SIGNATURE)
    rhs = parse_term(args.rhs, MALTSEV_SIGNATURE)
    same = rewriting.equal_in_free(lhs, rhs)
    # normalize returns the normal form that equal_in_free kept on each side.
    lhs_nf = format_term(rewriting.normalize(lhs))
    rhs_nf = format_term(rewriting.normalize(rhs))
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
    from . import rewriting

    m, n = args.generators, args.level
    budget = _budget(args)
    if args.oracle or m < 1 or n < 0:  # the budget bounds the oracle; count_M rejects the rest
        value = rewriting.count_M(m, n, oracle=args.oracle, **budget)
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
    from . import rewriting
    from .terms import format_term

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
    from . import words

    return _emit_word(rep, words.fg_mul(_word(args.a), _word(args.b)))


@command("fg inv", option("--a", required=True))
def cmd_fg_inv(args, rep: Report) -> int:
    from . import words

    return _emit_word(rep, words.fg_inv(_word(args.a)))


@command("heap mu", *required("--a", "--b", "--c"))
def cmd_heap_mu(args, rep: Report) -> int:
    from . import words

    w = words.heap_mu(_heap_word(args.a), _heap_word(args.b), _heap_word(args.c))
    rep.text(words.format_word(w))
    rep.emit(word=words.format_word(w), stratum=w.stratum)
    return 0


@command("heap member", option("--word", required=True))
def cmd_heap_member(args, rep: Report) -> int:
    from . import words

    w = _word(args.word)
    member = words.is_heap_word(w)
    rep.text("true" if member else "false")
    rep.emit(word=words.format_word(w), member=member)
    return 0 if member else 1


@command("heap group-ops", option("--base", required=True), option("--u"), option("--v"))
def cmd_heap_group_ops(args, rep: Report) -> int:
    if args.v is not None and args.u is None:
        raise MaltsevError("--v needs --u: the product u * v has no u")
    from .words import format_word, heap_group_ops

    group = heap_group_ops(_heap_word(args.base))
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
    from .homomorphisms import hom_to_group
    from .terms import MALTSEV_SIGNATURE, parse_term

    t = parse_term(args.term, MALTSEV_SIGNATURE)
    return _emit_word(rep, hom_to_group(t, _parse_map(args.map)))


@command("hom separate", *required("--term", "--witness"))
def cmd_hom_separate(args, rep: Report) -> int:
    from .homomorphisms import separating_hom
    from .terms import IDENT_RE, MALTSEV_SIGNATURE, parse_term

    if not IDENT_RE.fullmatch(args.witness) or args.witness in MALTSEV_SIGNATURE:
        raise MaltsevError(f"--witness must be a variable name, got {args.witness!r}")
    value = separating_hom(parse_term(args.term, MALTSEV_SIGNATURE), args.witness)
    rep.text(str(value))
    rep.emit(value=value, witness=args.witness)
    return 0


@command("algebra check-identity", FILE, option("--identity", required=True))
def cmd_check_identity(args, rep: Report) -> int:
    from .algebras import check_identity, parse_identity

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
    from .algebras import is_maltsev_operation

    ok = is_maltsev_operation(_read_algebra(args.file), args.symbol)
    rep.text("true" if ok else "false")
    rep.emit(symbol=args.symbol, maltsev=ok)
    return 0 if ok else 1


# --from choice -> the deriving function of maltsev.algebras.
DERIVATIONS = {
    "group": "maltsev_from_group",
    "left-loop": "maltsev_from_left_loop",
    "quasigroup": "maltsev_from_quasigroup",
}


@command(
    "algebra derive-maltsev",
    FILE,
    option("--from", dest="source", choices=DERIVATIONS, required=True),
)
def cmd_derive_maltsev(args, rep: Report) -> int:
    from . import algebras

    alg = _read_algebra(args.file)
    derive = getattr(algebras, DERIVATIONS[args.source])
    derived = algebras.with_operation(alg, "mu", derive(alg))
    verified = algebras.is_maltsev_operation(derived, "mu")
    doc = algebras.dump_algebra(derived)
    rep.text(json.dumps(doc, indent=2, sort_keys=True))
    rep.text(f"verified maltsev: {'true' if verified else 'false'}")
    rep.emit(algebra=doc, verified=verified)
    return 0 if verified else 1


@command(
    "algebra congruences",
    FILE,
    option("--check-permutability", action="store_true"),
    option("--max-size", type=int, default=None),
)
def cmd_congruences(args, rep: Report) -> int:
    from . import congruences as cong

    alg = _read_algebra(args.file)
    max_size = cong.LATTICE_GUARD if args.max_size is None else args.max_size
    if cong.LATTICE_GUARD < alg.size <= max_size:
        rep.text(
            f"warning: carrier size {alg.size} above the default guard of {cong.LATTICE_GUARD};"
            " principal-congruence generation scans all element pairs and"
            " may be slow"
        )
    lattice = cong.all_congruences(alg, max_size=max_size)
    partitions = [cong.format_partition(c.partition) for c in lattice]
    for p in partitions:
        rep.text(p)
    rep.text(f"count: {len(partitions)}")
    rep.emit(congruences=partitions)
    if not args.check_permutability:
        return 0
    failing = cong.non_permuting_pair(alg, lattice)
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
    from . import congruences as cong

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
    from . import congruences as cong
    from .algebras import dump_algebra

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
    from .terms import format_term
    from .termsearch import find_maltsev_term, verify_maltsev_term

    alg = _read_algebra(args.file)
    outcome = find_maltsev_term(alg, **_budget(args))
    rep.emit(status=outcome.status, visited=outcome.visited)
    if outcome.status == "found":
        if not verify_maltsev_term(alg, outcome.term):
            raise MaltsevError("search produced an unverified term")
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
    import random

    from .sampling import selftest

    checks = selftest(random.Random(args.seed), args.iterations)
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


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv.  Every top-level command is in it, so --help and
    usage errors name them all, but a group's leaves, and a leaf's options,
    are added only when argv holds that name.  Without argv, all are."""
    named = set(argv).__contains__ if argv is not None else lambda name: True
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
        if group and not named(group):
            continue
        p = groups[group].add_parser(leaf) if group else top.add_parser(name, help=help_text)
        for flags, kwargs in options if named(leaf) else ():
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
        message = str(exc) or type(exc).__name__  # MemoryError() has no message
        rep.text(f"error: {message}")
        rep.emit(error=message)
    rep.emit(command=args.name)
    return code, rep.render()


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse argv and run the command; returns (exit code, output)."""
    argv = sys.argv[1:] if argv is None else argv
    return dispatch(build_parser(argv).parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    code, output = run(argv)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
