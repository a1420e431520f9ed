"""The README's examples and lists agree with the package."""

import argparse
import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

from qschur.checks import CHECKS
from qschur.classification import parse_segments
from qschur.cli import build_parser
from qschur.scalars import ScalarContext

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_quick_start_prints_its_commented_output():
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [ast.literal_eval(line.split("#", 1)[1].strip())
                for line in code.splitlines() if line.startswith("print(")]
    assert expected, "the quick start shows no printed output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert [ast.literal_eval(line) for line in out.getvalue().splitlines()] == expected


def test_check_ids_list_the_registry():
    listed = re.search(r"Check ids: (.*?), or `all`\.", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(CHECKS)


def test_seed_is_taken_by_the_commands_the_readme_names():
    said = re.search(r"Only (.*?) takes? `--seed`", README, re.S).group(1)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    taking = [name for name, sp in commands.items() if "--seed" in sp._option_string_actions]
    assert re.findall(r"`([^`]+)`", said) == taking


GRAMMAR = " ".join(README.split("### Segment grammar", 1)[1].split("###", 1)[0].split())


def test_segment_grammar_juxtapositions():
    examples = re.findall(r"`([^`]+@[^`]+)`[^`]* juxtaposes to (?:the parameter vector )?"
                          r"`\(([^`]+)\)`", GRAMMAR)
    assert [spec for spec, _ in examples] == ["1@0:2,1@4:1", "1@0:2,1@-6:1"]
    ctx = ScalarContext(2)
    for spec, vector in examples:
        assert ", ".join(c.render_q() for c in parse_segments(ctx, spec).a_vector()) == vector


def test_segment_grammar_backend_example():
    n, spec, order, last, t0 = re.search(
        r"at n = (\d+), `([^`]+)` orders as `([^`]+)` over Q\(t\) but puts `([^`]+)` last "
        r"at t = (\S+)\.", GRAMMAR).groups()
    assert repr(parse_segments(ScalarContext(int(n)), spec)) == f"SegmentList({order})"
    seg = parse_segments(ScalarContext(int(n), t0=Fraction(t0)), spec).segments[-1]
    assert f"{seg.center}:{seg.length}" == last
