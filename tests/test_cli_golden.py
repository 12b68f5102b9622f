"""Golden outputs of the CLI: every README example and the known error
cases, in text and --format json, with their exit codes.

``cli_golden.json`` holds the exact stdout bytes.  ``files`` are documents
written to a temporary directory and named in argv as ``{tmp}/<name>``;
other paths are relative to the root of the checkout.  A change that alters
any of these outputs on purpose must update the data file in the same
change.  Every command line of the README's command block has a
text-format case here.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from maltsev.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"])[:60] for c in GOLDEN["cases"]]
)
def test_output_is_byte_identical(case, tmp_path, monkeypatch, capsys):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MW_BUDGET", raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["code"], case["out"])


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) for each `maltsev ...` line of the README's
    command-line block."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command-line tool")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    return [
        (shlex.split(command)[1:], comment)
        for command, _, comment in (line.partition("#") for line in block.splitlines())
        if command.startswith("maltsev ")
    ]


README_COMMANDS = readme_commands()


@pytest.mark.parametrize(
    "argv, comment", README_COMMANDS, ids=[" ".join(argv)[:60] for argv, _ in README_COMMANDS]
)
def test_readme_command_has_a_golden_case(argv, comment):
    [case] = [c for c in GOLDEN["cases"] if c["argv"] == argv and "env" not in c]
    if shown := re.search(r"->\s*([^,]+)", comment):
        assert case["out"].splitlines()[0] == shown[1].strip()
    if code := re.search(r"exit (\d+)", comment):
        assert case["code"] == int(code[1])
