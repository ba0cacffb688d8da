"""Generative bad-input test: every command, fed random databases, profiles,
traces and flag values at widths up to 12, ends with an exit code and never
a traceback.

The property, for `analyze`, `plan`, `verify` and `sweep-grain` called
in-process through `cli.main`:

- no exception escapes `main`;
- the exit code is 0 or 2, or 1 from `verify` with `--inject-fault` only
  (exit 1 means that verification found mismatches, and an uncorrupted
  plan has none);
- exit 2 writes exactly one line to stderr, starting `error: `.

argparse's own usage errors exit through `SystemExit` with its usage
message.  They are exempt only where argparse itself must refuse: a
`--mode`, `--format` or `--depth-rule` value outside its choices, or a value
that argparse takes for an option, because it starts with `-` and is not a
negative number.  argparse reads every other value as text, and the command
reads each number itself, so a malformed one ends with exit 2 as well.

Each part of a call (the database, the width, each flag and file) is drawn
well-formed most of the time and bent now and then, so that most calls run
a command through and the rest fail on one or two bent parts.  Each example
has a deadline, so an input that makes a command crawl fails.  One that
hangs for good (a C-level computation such as `Fraction("1e999999999")`,
which no signal interrupts) trips a watchdog that ends the test process
with status 1 and dumps every thread's stack to stderr (shown under
`pytest -s`; pytest's capture swallows it).  The examples are derandomized,
so a run is repeatable.
"""

from __future__ import annotations

import argparse
import faulthandler
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tcamtree.cli import main

HANG_SECONDS = 60    # the watchdog: far beyond any example's running time

JUNK = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)
NUMBERS = st.one_of(st.integers(-3, 140).map(str), st.integers().map(str), JUNK)
FRACTIONS = st.one_of(
    st.sampled_from(["0", "-1", "1/0", "nan", "inf", "1e999999999", "1E3", "0x10", " 1", "1_0",
                     "٣", "2"]),
    JUNK,
)
GEOMETRIES = st.one_of(
    st.sampled_from(["0x4", "4x0", "x", "4x", "8X4", "99999999999x3", "-4x4"]), JUNK,
)


CHOICES = {"--mode": ("auto", "exhaustive", "sampled"), "--format": ("json", "csv"),
           "--depth-rule": ("bits", "fixed")}
SWITCHES = ("--hybridize", "--inject-fault")
NEGATIVE_NUMBER = argparse.ArgumentParser()._negative_number_matcher   # argparse's own test


def argparse_refuses(argv: list[str]) -> bool:
    """Whether argparse must refuse `argv`, a command and then flags, each but
    a switch with its value: a value outside its flag's choices, or one that
    argparse takes for an option (it starts with `-`, is longer than `-`,
    holds no space and is not a negative number)."""
    words = iter(argv[1:])
    for name in words:
        if name in SWITCHES:
            continue
        value = next(words)
        if value not in CHOICES.get(name, (value,)):
            return True
        if value[:1] == "-" and value != "-" and " " not in value:
            if not NEGATIVE_NUMBER.match(value):
                return True
    return False


def bent(draw, good, bad, absent: int = 0):
    """A value from `good`, or one time in ten from `bad`; None (no such
    flag or file) `absent` times in ten."""
    pick = draw(st.integers(0, 9))
    if pick < absent:
        return None
    return draw(bad if pick == 9 else good)


def flag(draw, argv: list, name: str, good, bad):
    """Append `name` and a value half the time."""
    value = bent(draw, good, bad, absent=5)
    if value is not None:
        argv += [name, value]


@st.composite
def database_text(draw, width: int):
    """Distinct well-formed lines for `width`-bit addresses, comments and
    blank lines among them; bent, a line may carry a bad length, bits of the
    wrong width, no next hop, a duplicate, or text that is not a line."""
    lines, seen = [], set()
    for _ in range(draw(st.integers(0, 12))):
        length = draw(st.integers(0, width))
        bits = draw(st.text("01", min_size=length, max_size=length)).ljust(width, "0")
        line = f"{bits}/{length} {draw(st.sampled_from(['A', 'B', 'nh7']))}"
        kind = draw(st.integers(0, 19))
        if kind == 1:
            line = draw(st.sampled_from(["", "# comment", "   "]))
        elif kind == 2:
            line = f"{bits}/{draw(NUMBERS)} A"
        elif kind == 3:
            line = f"{bits[:-1] if bits else '1'}/{length} A"
        elif kind == 4:
            line = draw(st.sampled_from([f"{bits}/{length}", "/ A", f"{bits} A"]))
        elif kind == 5:
            line = draw(JUNK)
        elif kind == 6 and lines:
            line = lines[-1]
        elif (bits, length) in seen:
            continue
        seen.add((bits, length))
        lines.append(line)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def well_formed_database(draw, width: int):
    """Distinct well-formed lines only."""
    entries = draw(st.dictionaries(
        st.integers(0, width).flatmap(lambda l: st.text("01", min_size=l, max_size=l)),
        st.sampled_from(["A", "B", "nh7"]), max_size=12,
    ))
    return "".join(f"{b.ljust(width, '0')}/{len(b)} {h}\n" for b, h in entries.items())


def strides(width: int):
    """Strides whose sum fits the width."""
    return st.lists(st.integers(1, width), min_size=1, max_size=4).filter(
        lambda parts: sum(parts) <= width
    ).map(lambda parts: "-".join(map(str, parts)))


BAD_STRIDES = st.one_of(st.text("0123456789-", max_size=8), JUNK)

PROFILE = st.fixed_dictionaries({
    "stage_count": st.integers(1, 16),
    "tcam_blocks_per_stage": st.integers(0, 64),
    "sram_pages_per_stage": st.integers(0, 64),
}).map(json.dumps)
BAD_PROFILE = st.one_of(
    st.fixed_dictionaries({
        "stage_count": st.integers(-1, 5000),
        "tcam_blocks_per_stage": st.integers(-1, 2**70),
        "sram_pages_per_stage": st.integers(-1, 64),
    }).map(json.dumps),
    st.dictionaries(
        st.sampled_from(["stage_count", "tcam_blocks_per_stage", "sram_pages_per_stage", "x"]),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
                  st.text(max_size=3)),
    ).map(json.dumps),
    st.sampled_from(["[]", "", "{", "null", '{"stage_count": 1e999}']),
    JUNK,
)


def trace(width: int):
    return st.lists(st.text("01", min_size=width, max_size=width), min_size=1, max_size=6).map(
        "\n".join
    )


BAD_TRACE = st.lists(
    st.one_of(st.text("01.", max_size=14), st.sampled_from(["10.0.0.1", "# note", ""]), JUNK),
    max_size=6,
).map("\n".join)


@st.composite
def invocation(draw, command: str):
    """(argv, files): the argument list of one call of `command`, and the
    text of each file it names, by name in the directory it runs in."""
    width = draw(st.integers(1, 12))
    files = {"db.txt": bent(draw, well_formed_database(width), database_text(width))}
    bad_width = st.one_of(st.integers(-2, 12).map(str), st.just(str(10**30)), JUNK)
    argv = [command, "--db", "db.txt", "--width", bent(draw, st.just(str(width)), bad_width)]
    if command == "analyze":
        flag(draw, argv, "--max-level", st.integers(1, width).map(str), NUMBERS)
    else:
        argv += ["--strides", bent(draw, strides(width), BAD_STRIDES)]
        flag(draw, argv, "--grain", st.sampled_from(["44x512", "8x4", "4x16", "16x8"]), GEOMETRIES)
        flag(draw, argv, "--coverage", st.sampled_from(["0.99", "1", "0.5", "1/3"]), FRACTIONS)
    if command == "sweep-grain":
        widths = st.lists(st.integers(1, 64).map(str), min_size=1, max_size=4).map(",".join)
        argv += ["--widths", bent(draw, widths, st.one_of(st.just("0,4"), JUNK))]
        flag(draw, argv, "--depth-rule", st.sampled_from(["bits", "fixed"]), JUNK)
    if command in ("plan", "verify"):
        flag(draw, argv, "--tag-bits", st.integers(0, 8).map(str), NUMBERS)
        flag(draw, argv, "--factor", st.sampled_from(["3", "1", "1/2", "0.5", "7"]), FRACTIONS)
        flag(draw, argv, "--sram-page", st.sampled_from(["128x1024", "32x16", "8x4"]), GEOMETRIES)
        flag(draw, argv, "--overflow-capacity", st.integers(0, 20).map(str), NUMBERS)
        if draw(st.booleans()):
            argv.append("--hybridize")
        profile = bent(draw, PROFILE, BAD_PROFILE, absent=5)
        if profile is not None:
            files["profile.json"] = profile
            argv += ["--profile", "profile.json"]
    if command == "plan":
        flag(draw, argv, "--format", st.sampled_from(["json", "csv"]), JUNK)
    if command == "verify":
        flag(draw, argv, "--mode", st.sampled_from(["auto", "exhaustive", "sampled"]), JUNK)
        flag(draw, argv, "--samples", st.integers(0, 300).map(str), NUMBERS)
        flag(draw, argv, "--seed", st.integers(0, 9).map(str), NUMBERS)
        flag(draw, argv, "--max-mismatches", st.integers(0, 30).map(str), NUMBERS)
        if draw(st.integers(0, 9)) == 0:
            argv.append("--inject-fault")
        addresses = bent(draw, trace(width), BAD_TRACE, absent=7)
        if addresses is not None:
            files["trace.txt"] = addresses
            argv += ["--trace", "trace.txt"]
    flag(draw, argv, "--out", st.just("out.txt"), st.sampled_from([".", "missing/out.txt"]))
    return argv, files


def check(command: str, argv: list[str], files: dict[str, str]):
    """Run one call in a fresh working directory and assert the property."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8", newline="")
        os.chdir(tmp)
        faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:   # argparse's own usage error
                    assert argparse_refuses(argv), (argv, err.getvalue())
                    assert exc.code == 2 and err.getvalue().startswith("usage: "), err.getvalue()
                    return
        finally:
            faulthandler.cancel_dump_traceback_later()
            os.chdir(home)
    if code == 1:
        assert command == "verify" and "--inject-fault" in argv, (argv, out.getvalue())
    else:
        assert code in (0, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


BAD_INPUT = settings(
    max_examples=100, deadline=timedelta(seconds=5), derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@BAD_INPUT
@given(invocation("analyze"))
@example((  # once exempt as argparse's usage error: argparse read the number
    ["analyze", "--db", "db.txt", "--width", "6", "--max-level", "x"], {"db.txt": "100000/1 A\n"},
))
def test_analyze_never_raises(call):
    check("analyze", *call)


@BAD_INPUT
@given(invocation("plan"))
@example((  # once a hang: the exponent was expanded in full
    ["plan", "--db", "db.txt", "--width", "6", "--strides", "3-3", "--factor", "1e999999999"],
    {"db.txt": "100000/1 A\n"},
))
def test_plan_never_raises(call):
    check("plan", *call)


@BAD_INPUT
@given(invocation("verify"))
def test_verify_never_raises(call):
    check("verify", *call)


@BAD_INPUT
@given(invocation("sweep-grain"))
@example((  # once exempt as argparse's usage error: argparse read the number
    ["sweep-grain", "--db", "db.txt", "--width", "6x", "--strides", "3", "--widths", "4"],
    {"db.txt": "100000/1 A\n"},
))
@example((  # once a traceback: no tree when every entry is beyond the strides
    ["sweep-grain", "--db", "db.txt", "--width", "2", "--strides", "1", "--widths", "1"],
    {"db.txt": "00/2 A\n"},
))
def test_sweep_grain_never_raises(call):
    check("sweep-grain", *call)
