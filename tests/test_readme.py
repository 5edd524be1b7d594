"""The README's examples, run as written: the library quick start, and the
minimal problem file through the command line in a separate process, so
that the exit status a shell sees is the one the README documents; and the
command synopsis, which must name every long option the parser takes."""

import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

from helpers import run_cli
from pertkit.cli import EXIT_CODES, EXIT_OK, build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, language: str) -> str:
    """The first ``language`` code block that follows the line ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{language}\n(.*?)^```", re.S | re.M).search(README, start)
    assert match is not None, f"no {language} block after {after!r}"
    return match.group(1)


def test_quick_start_prints_the_second_order_shifts():
    code = fenced_block("## Library quick start", "python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    number = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
    values = [float(x) for x in re.findall(number, printed.getvalue())]
    np.testing.assert_allclose(values, [-0.01, 0.01], rtol=1e-12)


def test_minimal_problem_runs_through_the_command_line(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(fenced_block("A minimal problem file:", "json"), encoding="utf-8")
    out = tmp_path / "result.json"
    proc = run_cli("transform", str(problem), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    corrections = json.loads(out.read_text())["corrections"]["2"]["2,0"]
    np.testing.assert_allclose([corrections[0][0][0], corrections[1][1][0]], [-0.1**2, 0.1**2],
                               rtol=1e-12)


def test_malformed_problem_exits_with_the_parse_error_code(tmp_path):
    doc = json.loads(fenced_block("A minimal problem file:", "json"))
    doc["hbar"] = [1.0]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "result.json"
    proc = run_cli("transform", str(problem), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_synopsis_names_every_long_option():
    synopsis = fenced_block("## Command line", "sh").splitlines()
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.items():
        (line,) = [s for s in synopsis if s.startswith(f"pertkit {name} ")]
        words = set(re.findall(r"--[\w-]+", line))
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert option in words, (name, option)


def test_exit_code_list_names_exactly_the_codes_main_returns():
    start = README.index("Exit codes:")
    paragraph = README[start:README.index("\n\n", start)]
    # each code opens the list or follows a semicolon: "0 success; 2 parse error, ..."
    named = [int(code) for code in re.findall(r"(?:Exit codes:|;)\s+(\d+)\s+[a-z]", paragraph)]
    assert sorted(named) == sorted({EXIT_OK} | {code for _, code in EXIT_CODES})
