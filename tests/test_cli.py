import argparse
import copy
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maltsev.cli import build_parser, main, run
from maltsev.rewriting import count_M

from conftest import cyclic_group

SRC = Path(__file__).resolve().parents[1] / "src"

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

Z2 = {
    "name": "Z2",
    "size": 2,
    "operations": [{"symbol": "mul", "arity": 2, "table": [0, 1, 1, 0]}],
}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_z2_table(v):
    return isinstance(v, list) and len(v) == 4 and all(_is_int(e) and e in (0, 1) for e in v)


def _z2_with(path, values):
    """The Z2 document, as text, with the value at path replaced."""

    def build(value):
        doc = copy.deepcopy(Z2)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(doc)

    return values.map(build)


def malformed_document():
    """Text of a file that holds no valid algebra document.  Short raw text
    cannot hold one: a document needs "size" and "operations" keys.  The
    dictionaries drawn from JSON_VALUES have keys of at most three
    characters, so none of them is a valid document or operation."""
    op = ("operations", 0)
    return st.one_of(
        st.text(max_size=20),
        JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
        st.sampled_from(["size", "operations"]).map(
            lambda key: json.dumps({k: v for k, v in Z2.items() if k != key})
        ),
        _z2_with(("name",), JSON_VALUES.filter(lambda v: not isinstance(v, str))),
        _z2_with(("size",), JSON_VALUES.filter(lambda v: not (_is_int(v) and v == 2))),
        _z2_with(("operations",), JSON_VALUES.filter(lambda v: v != [])),
        _z2_with(op, JSON_VALUES),
        _z2_with(op + ("symbol",), JSON_VALUES.filter(lambda v: not isinstance(v, str) or not v)),
        _z2_with(op + ("arity",), JSON_VALUES.filter(lambda v: not (_is_int(v) and v == 2))),
        _z2_with(op + ("table",), JSON_VALUES.filter(lambda v: not _is_z2_table(v))),
        st.integers(0, 3).flatmap(
            lambda i: _z2_with(
                op + ("table", i), JSON_VALUES.filter(lambda v: not (_is_int(v) and v in (0, 1)))
            )
        ),
    )


class TestNormalize:
    def test_collapses(self, capsys):
        assert main(["normalize", "--term", "mu(x,y,y)"]) == 0
        assert capsys.readouterr().out.strip() == "x"

    def test_parse_error_exit_code(self):
        code, out = run(["normalize", "--term", "mu(x,y"])
        assert code == 2
        assert "error" in out

    def test_json_record(self):
        code, out = run(["--format", "json", "normalize", "--term", "mu(y,y,x)"])
        assert code == 0
        record = json.loads(out)
        assert record["normal_form"] == "x"


class TestEqual:
    def test_equal_terms(self):
        code, out = run(["equal", "--lhs", "mu(x,y,y)", "--rhs", "x"])
        assert code == 0
        assert out.splitlines()[0] == "true"

    def test_unequal_terms_exit_one(self):
        code, out = run(["equal", "--lhs", "mu(x,y,z)", "--rhs", "mu(z,y,x)"])
        assert code == 1
        assert out.splitlines()[0] == "false"


class TestCountM:
    def test_fast(self):
        code, out = run(["count-m", "--generators", "2", "--level", "1"])
        assert (code, out) == (0, "4")

    def test_oracle_flag(self):
        code, out = run(["count-m", "--generators", "2", "--level", "2", "--oracle"])
        assert (code, out) == (0, "38")

    def test_budget_flag(self):
        code, out = run(
            ["count-m", "--generators", "2", "--level", "2", "--oracle", "--budget", "5"]
        )
        assert code == 2

    def test_stops_before_a_count_too_long_to_print(self, monkeypatch):
        # the count's digits roughly triple per level: level 9 has 3439 of
        # them, level 10 more than the 4300 str() accepts by default, and
        # level 30 would not fit in memory, so the command must stop at 10
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        code, out = run(["--format", "json", "count-m", "--generators", "2", "--level", "9"])
        assert code == 0
        assert json.loads(out)["count"] == str(count_M(2, 9))
        for level in ("10", "30"):
            code, out = run(["--format", "json", "count-m", "--generators", "2", "--level", level])
            assert (code, json.loads(out)) == (
                2,
                {"command": "count-m", "error": "the count at level 10 has more than 4300 digits"},
            )

    def test_one_generator_at_a_huge_level(self):
        start = time.perf_counter()
        code, out = run(["count-m", "--generators", "1", "--level", "1000000000"])
        assert (code, out) == (0, "1")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("level", [10, 16, 10**9])
    def test_oracle_budget_is_checked_before_a_huge_count(self, level):
        # with one generator the count about cubes per level: level 10 has
        # more digits than str() prints by default and level 16 takes
        # seconds to compute, so the check must stop below them
        start = time.perf_counter()
        argv = ["count-m", "--generators", "1", "--level", str(level), "--oracle"]
        code, out = run([*argv, "--budget", "1000000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (
            2,
            "error: oracle enumeration needs more than 2**2000 terms > budget 1000000",
        )

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("MW_BUDGET", "5")
        code, _ = run(["count-m", "--generators", "2", "--level", "2", "--oracle"])
        assert code == 2

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("MW_BUDGET", "5")
        code, out = run(
            [
                "count-m",
                "--generators",
                "2",
                "--level",
                "2",
                "--oracle",
                "--budget",
                "2000",
            ]
        )
        assert (code, out) == (0, "38")


BUDGETED = {
    "count-m": ["count-m", "--generators", "2", "--level", "1", "--oracle"],
    "maltsev-term": ["algebra", "maltsev-term", "--file", "{z3}"],
}


class TestBudgetKeyword:
    """The CLI passes budget= to count_M and find_maltsev_term only when
    --budget or MW_BUDGET gives one, so each engine alone holds its default."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        from maltsev import rewriting, termsearch

        seen = []
        for module, name in ((rewriting, "count_M"), (termsearch, "find_maltsev_term")):

            def spy(*args, _real=getattr(module, name), **kwargs):
                seen.append(kwargs.get("budget", "default"))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        monkeypatch.delenv("MW_BUDGET", raising=False)
        return seen

    @pytest.fixture
    def argv(self, algebra_file, command):
        return [algebra_file("z3") if a == "{z3}" else a for a in BUDGETED[command]]

    @pytest.mark.parametrize("command", BUDGETED)
    def test_no_budget_keyword_without_a_budget(self, budgets, argv):
        assert run(argv)[0] == 0
        assert budgets == ["default"]

    @pytest.mark.parametrize("command", BUDGETED)
    def test_a_given_budget_is_passed(self, budgets, monkeypatch, argv):
        monkeypatch.setenv("MW_BUDGET", "300")
        run(argv)
        run([*argv, "--budget", "400"])
        assert budgets == [300, 400]


class TestConfluenceReport:
    def test_verdict(self):
        code, out = run(["confluence-report"])
        assert code == 0
        assert "locally confluent: true" in out
        assert "critical pairs: 1" in out

    def test_json(self):
        code, out = run(["--format", "json", "confluence-report"])
        record = json.loads(out)
        assert record["locally_confluent"] is True
        assert len(record["pairs"]) == 1


class TestFreeGroup:
    def test_reduce_paper_example(self, capsys):
        assert main(["fg", "reduce", "--word", "x y z z^-1 y^-1 x"]) == 0
        assert capsys.readouterr().out == "x x\n"

    def test_mul(self):
        code, out = run(["fg", "mul", "--a", "x y z", "--b", "z^-1 y^-1 x"])
        assert (code, out) == (0, "x x")

    def test_inv(self):
        code, out = run(["fg", "inv", "--a", "x y^-1 z"])
        assert (code, out) == (0, "z^-1 y x^-1")


class TestHeap:
    def test_mu(self):
        code, out = run(["heap", "mu", "--a", "x", "--b", "y", "--c", "z"])
        assert (code, out) == (0, "x y^-1 z")

    def test_member_true(self):
        code, out = run(["heap", "member", "--word", "x y^-1 z"])
        assert (code, out) == (0, "true")

    def test_member_false_exit_one(self):
        code, out = run(["heap", "member", "--word", "x y"])
        assert (code, out) == (1, "false")

    def test_group_ops(self):
        code, out = run(
            ["heap", "group-ops", "--base", "x", "--u", "x y^-1 x", "--v", "x"]
        )
        assert code == 0
        assert "identity: x" in out
        assert "inv(u):" in out and "u * v:" in out

    def test_non_heap_input_is_an_error(self):
        code, out = run(["heap", "mu", "--a", "x y", "--b", "y", "--c", "z"])
        assert code == 2


class TestHom:
    def test_group(self):
        code, out = run(["hom", "group", "--term", "mu(mu(x,y,z),x,y)"])
        assert (code, out) == (0, "x y^-1 z x^-1 y")

    def test_group_with_map(self):
        code, out = run(
            ["hom", "group", "--term", "mu(x,y,z)", "--map", "x=a,y=b,z=c"]
        )
        assert (code, out) == (0, "a b^-1 c")

    def test_separate(self):
        code, out = run(["hom", "separate", "--term", "mu(x,y,z)", "--witness", "y"])
        assert (code, out) == (0, "1")


class TestAlgebraCommands:
    def test_check_identity_holds(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "check-identity",
                "--file",
                algebra_file("z3"),
                "--identity",
                "mul(x,y)=mul(y,x)",
            ]
        )
        assert (code, out) == (0, "holds")

    def test_check_identity_counterexample(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "check-identity",
                "--file",
                algebra_file("s3"),
                "--identity",
                "mul(x,y)=mul(y,x)",
            ]
        )
        assert code == 1
        assert "counterexample" in out

    def test_maltsev_check(self, algebra_file):
        code, out = run(
            ["algebra", "maltsev-check", "--file", algebra_file("mu2"), "--symbol", "mu"]
        )
        assert (code, out) == (0, "true")

    def test_derive_maltsev_group(self, algebra_file):
        code, out = run(
            ["algebra", "derive-maltsev", "--file", algebra_file("z4"), "--from", "group"]
        )
        assert code == 0
        assert "verified maltsev: true" in out

    def test_derive_maltsev_quasigroup(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "derive-maltsev",
                "--file",
                algebra_file("qg3"),
                "--from",
                "quasigroup",
            ]
        )
        assert code == 0

    def test_derive_maltsev_left_loop(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "derive-maltsev",
                "--file",
                algebra_file("loop5"),
                "--from",
                "left-loop",
            ]
        )
        assert code == 0

    def test_derive_axiom_failure(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "derive-maltsev",
                "--file",
                algebra_file("chain3"),
                "--from",
                "group",
            ]
        )
        assert code == 2

    def test_congruences(self, algebra_file):
        code, out = run(["algebra", "congruences", "--file", algebra_file("z4")])
        assert code == 0
        assert "0,2|1,3" in out
        assert "count: 3" in out

    def test_congruences_permutability_pass(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "congruences",
                "--file",
                algebra_file("z4"),
                "--check-permutability",
            ]
        )
        assert code == 0
        assert "permute" in out

    def test_congruences_permutability_fail(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "congruences",
                "--file",
                algebra_file("chain3"),
                "--check-permutability",
            ]
        )
        assert code == 1
        assert "non-permuting pair" in out

    def test_principal(self, algebra_file):
        code, out = run(
            ["algebra", "principal", "--file", algebra_file("z4"), "--pair", "0,2"]
        )
        assert (code, out) == (0, "0,2|1,3")

    def test_quotient(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "quotient",
                "--file",
                algebra_file("z4"),
                "--partition",
                "0,2|1,3",
            ]
        )
        assert code == 0
        assert '"size": 2' in out

    def test_quotient_rejects_non_congruence(self, algebra_file):
        code, out = run(
            [
                "algebra",
                "quotient",
                "--file",
                algebra_file("z4"),
                "--partition",
                "0,1|2,3",
            ]
        )
        assert code == 1
        assert "not a congruence" in out

    def test_maltsev_term_found(self, algebra_file):
        code, out = run(["algebra", "maltsev-term", "--file", algebra_file("z2")])
        assert code == 0
        assert "verified: true" in out

    def test_maltsev_term_none(self, algebra_file):
        code, out = run(["algebra", "maltsev-term", "--file", algebra_file("chain3")])
        assert (code, out) == (1, "none")

    def test_maltsev_term_budget(self, algebra_file):
        code, out = run(
            ["algebra", "maltsev-term", "--file", algebra_file("z3"), "--budget", "4"]
        )
        assert (code, out) == (2, "budget-exhausted")

    def test_missing_file(self):
        code, out = run(["algebra", "congruences", "--file", "/nonexistent.json"])
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run(["algebra", "congruences", "--file", str(path)])
        assert code == 2

    def test_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "size": 2, "operations": [
            {"symbol": "f", "arity": 1, "table": [0, 5]}
        ]}))
        code, out = run(["algebra", "congruences", "--file", str(path)])
        assert code == 2
        assert "table[1]" in out

    def test_huge_arity_is_a_located_schema_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"size": 10, "operations": [{"symbol": "f", "arity": 100000000, "table": [0]}]}
        ))
        argv = ["algebra", "congruences", "--file", str(path)]
        message = "error: operations[0] ('f').table: table has 1 entries, expected 10**100000000"
        start = time.perf_counter()
        assert run(argv) == (2, message)
        assert time.perf_counter() - start < 1.0
        done = subprocess.run(
            [sys.executable, "-m", "maltsev.cli", *argv],
            capture_output=True, text=True, timeout=10, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert (done.returncode, done.stdout) == (2, message + "\n")


class TestSelftest:
    def test_passes_and_is_deterministic(self):
        code1, out1 = run(["--format", "json", "selftest", "--iterations", "60"])
        code2, out2 = run(["--format", "json", "selftest", "--iterations", "60"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_runs_but_not_verdict(self):
        code1, out1 = run(["--seed", "1", "selftest", "--iterations", "40"])
        assert code1 == 0
        assert "selftest: pass" in out1


class TestMachineOutput:
    def test_byte_identical_for_identical_config(self, algebra_file):
        path = algebra_file("z4")
        a = run(["--format", "json", "algebra", "congruences", "--file", path])
        b = run(["--format", "json", "algebra", "congruences", "--file", path])
        assert a == b

    def test_records_are_single_lines(self, algebra_file):
        _, out = run(
            ["--format", "json", "algebra", "maltsev-term", "--file", algebra_file("z2")]
        )
        assert "\n" not in out
        json.loads(out)


def test_every_documented_command_is_reachable():
    parser = build_parser()
    help_text = parser.format_help()
    for command in (
        "normalize",
        "equal",
        "count-m",
        "confluence-report",
        "fg",
        "heap",
        "hom",
        "algebra",
        "selftest",
    ):
        assert command in help_text


class TestLatticeGuard:
    def test_oversize_carrier_is_guarded(self, algebra_file):
        path = algebra_file("z9", cyclic_group(9))
        code, out = run(["algebra", "congruences", "--file", path])
        assert code == 2

    def test_override_prints_cost_warning(self, algebra_file):
        path = algebra_file("z9", cyclic_group(9))
        code, out = run(["algebra", "congruences", "--file", path, "--max-size", "9"])
        assert code == 0
        assert "warning" in out
        assert "count: 3" in out


class TestExitCodeContract:
    """Every failure exits 2 with a one-line record holding only the command
    and the error, never a traceback (which would exit 1, i.e. "false")."""

    # name: (argv, MW_BUDGET, a substring the error must contain or None)
    CASES = {
        "unknown symbol": (
            ["algebra", "maltsev-check", "--file", "{z4}", "--symbol", "nosuch"],
            None,
            "unknown operation symbol 'nosuch' (operations: mul, inv, e)",
        ),
        "file is a directory": (["algebra", "congruences", "--file", "{dir}"], None, None),
        "MW_BUDGET not an integer": (
            ["count-m", "--generators", "2", "--level", "1"],
            "abc",
            "MW_BUDGET must be a positive integer, got 'abc'",
        ),
        "MW_BUDGET not an integer, search": (
            ["algebra", "maltsev-term", "--file", "{z4}"],
            "abc",
            "MW_BUDGET must be a positive integer, got 'abc'",
        ),
        "budget zero, search": (
            ["algebra", "maltsev-term", "--file", "{z4}", "--budget", "0"],
            None,
            "--budget must be a positive integer, got 0",
        ),
        "budget negative, count": (
            ["count-m", "--generators", "2", "--level", "1", "--oracle", "--budget", "-1"],
            None,
            "--budget must be a positive integer, got -1",
        ),
        "pair of one element": (
            ["algebra", "principal", "--file", "{z4}", "--pair", "0"],
            None,
            "--pair must be two comma-separated elements, got '0'",
        ),
        "pair not integers": (
            ["algebra", "principal", "--file", "{z4}", "--pair", "a,b"],
            None,
            "--pair must be two comma-separated elements, got 'a,b'",
        ),
        "empty partition element": (
            ["algebra", "quotient", "--file", "{z4}", "--partition", "0,,2|1,3"],
            None,
            "partition: empty element in block '0,,2'",
        ),
        "partition misses elements": (
            ["algebra", "quotient", "--file", "{z4}", "--partition", "0|2"],
            None,
            "partition: blocks must cover 0..3; missing 1, 3",
        ),
        "map entry without =": (["hom", "group", "--term", "mu(x,y,z)", "--map", "x=a,yb"], None, None),
        "non-heap u": (["heap", "group-ops", "--base", "x", "--u", "x y", "--v", "x"], None, None),
        "empty u": (["heap", "group-ops", "--base", "x", "--u", ""], None, "not a heap word"),
        "empty v": (["heap", "group-ops", "--base", "x", "--u", "x", "--v", ""], None, "not a heap word"),
        "no iterations": (
            ["selftest", "--iterations", "0"],
            None,
            "--iterations must be a positive integer, got 0",
        ),
        "negative iterations": (
            ["selftest", "--iterations", "-3"],
            None,
            "--iterations must be a positive integer, got -3",
        ),
        "witness is the operation symbol": (
            ["hom", "separate", "--term", "mu(x,y,z)", "--witness", "mu"],
            None,
            "--witness must be a variable name, got 'mu'",
        ),
    }

    @staticmethod
    def assert_error_record(code, out, command, expected=None):
        assert code == 2
        assert "\n" not in out
        record = json.loads(out)
        assert set(record) == {"command", "error"}
        assert record["command"] == command
        if expected is not None:
            assert expected in record["error"]

    @pytest.mark.parametrize("case", CASES)
    def test_malformed_input(self, case, algebra_file, tmp_path, monkeypatch):
        argv, budget, expected = self.CASES[case]
        if budget is None:
            monkeypatch.delenv("MW_BUDGET", raising=False)
        else:
            monkeypatch.setenv("MW_BUDGET", budget)
        paths = {"{z4}": algebra_file("z4"), "{dir}": str(tmp_path)}
        code, out = run(["--format", "json", *(paths.get(a, a) for a in argv)])
        command = " ".join(itertools.takewhile(lambda a: not a.startswith("--"), argv))
        self.assert_error_record(code, out, command, expected)

    def test_deep_term_normalizes(self):
        # A depth-5000 tower of mu(_,y,y) cancels down to x.
        deep = "mu(" * 5000 + "x" + ",y,y)" * 5000
        code, out = run(["--format", "json", "normalize", "--term", deep])
        assert code == 0
        assert json.loads(out) == {"command": "normalize", "input": deep, "normal_form": "x"}

    @settings(max_examples=60, deadline=None)
    @given(document=malformed_document())
    def test_malformed_algebra_document(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "algebra.json"
            path.write_text(document, encoding="utf-8")
            code, out = run(["--format", "json", "algebra", "congruences", "--file", str(path)])
        self.assert_error_record(code, out, "algebra congruences")

    def test_an_error_without_a_message_is_named_by_its_type(self, monkeypatch, algebra_file):
        def out_of_memory(alg, budget=None):
            raise MemoryError()

        monkeypatch.setattr("maltsev.termsearch.find_maltsev_term", out_of_memory)
        argv = ["algebra", "maltsev-term", "--file", algebra_file("z3")]
        assert run(argv) == (2, "error: MemoryError")
        code, out = run(["--format", "json", *argv])
        assert (code, json.loads(out)) == (
            2,
            {"command": "algebra maltsev-term", "error": "MemoryError"},
        )

    def test_no_traceback_from_a_process(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), MW_BUDGET="abc")
        argv = ["--format", "json", "count-m", "--generators", "2", "--level", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "maltsev.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        self.assert_error_record(done.returncode, done.stdout.strip(), "count-m")


class TestDeepTerms:
    """Terms of depth 5000 through every command that takes a term; each
    answer is computed here from the shape of the term."""

    DEPTH = 5000

    @staticmethod
    def comb(depth, innermost):
        # mu(x,y,mu(x,y,...mu(x,y,innermost))): every level is irreducible.
        return "mu(x,y," * depth + innermost + ")" * depth

    def test_equal_true(self):
        lhs = self.comb(self.DEPTH, "z")
        padded = "mu(" + self.comb(self.DEPTH, "mu(z,x,x)") + ",y,y)"
        code, out = run(["--format", "json", "equal", "--lhs", lhs, "--rhs", padded])
        assert code == 0
        record = json.loads(out)
        assert record["equal"] is True
        assert record["lhs_normal_form"] == record["rhs_normal_form"] == lhs

    def test_equal_false(self):
        lhs, rhs = self.comb(self.DEPTH, "z"), self.comb(self.DEPTH, "x")
        code, out = run(["equal", "--lhs", lhs, "--rhs", rhs])
        assert code == 1
        assert out.splitlines() == ["false", f"lhs normal form: {lhs}", f"rhs normal form: {rhs}"]

    def test_hom_group(self):
        # mu(t,y,z) maps to image(t) y^-1 z, so the chain maps to x (y^-1 z)^n.
        term = "mu(" * self.DEPTH + "x" + ",y,z)" * self.DEPTH
        code, out = run(["--format", "json", "hom", "group", "--term", term])
        assert code == 0
        record = json.loads(out)
        assert record["word"] == "x" + " y^-1 z" * self.DEPTH
        assert record["length"] == 2 * self.DEPTH + 1

    def test_hom_separate(self):
        # mu(t,x,y) under x=1, y=0 in Z2 adds x+y = 1 at every level.
        term = "mu(" * self.DEPTH + "x" + ",x,y)" * self.DEPTH
        code, out = run(["hom", "separate", "--term", term, "--witness", "x"])
        assert (code, out) == (0, str((1 + self.DEPTH) % 2))

    @pytest.mark.parametrize("holds", [True, False])
    def test_check_identity(self, holds, algebra_file):
        # In Z3, mul(t,y) adds y, so the chain is x + DEPTH*y (mod 3).
        chain = "mul(" * self.DEPTH + "x" + ",y)" * self.DEPTH
        rhs = "mul(x,mul(y,y))" if holds else "x"
        assert self.DEPTH % 3 == 2
        code, out = run(
            ["--format", "json", "algebra", "check-identity", "--file", algebra_file("z3"),
             "--identity", f"{chain} = {rhs}"]
        )
        record = json.loads(out)
        if holds:
            assert (code, record["holds"]) == (0, True)
            return
        x, y = next(
            (x, y)
            for x, y in itertools.product(range(3), repeat=2)
            if (x + self.DEPTH * y) % 3 != x
        )
        assert (code, record["holds"], record["counterexample"]) == (1, False, {"x": x, "y": y})


class TestParserIsPinned:
    """Help texts and argparse usage errors, as recorded in
    ``cli_parser_golden.json``: the golden cases go through main() and
    capture stdout, so they cover neither."""

    GOLDEN = json.loads((Path(__file__).parent / "cli_parser_golden.json").read_text())

    @staticmethod
    def parsers(parser, name=""):
        """(command name, parser) for the top-level parser, every group and
        every leaf."""
        yield name, parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for leaf, sub in action.choices.items():
                    yield from TestParserIsPinned.parsers(sub, f"{name} {leaf}".strip())

    def test_help_texts(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        found = {name: p.format_help() for name, p in self.parsers(build_parser())}
        assert found == self.GOLDEN["help"]

    @pytest.mark.parametrize("case", GOLDEN["usage_errors"], ids=lambda c: " ".join(c["argv"]))
    def test_usage_errors(self, case, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(SRC.parent)
        with pytest.raises(SystemExit) as stop:
            main(case["argv"])
        out, err = capsys.readouterr()
        assert (stop.value.code, out, err) == (case["code"], case["stdout"], case["stderr"])
