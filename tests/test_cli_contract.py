"""The CLI's contract as a property of ``exponents`` and ``burgers``.

Every argv drawn here runs ``cli.main`` in process.  It must exit 0 or 2 (3
only when some number reaches 1e300 in magnitude), print exactly one JSON
object, raise nothing, and, when every number is ordinary, warn nothing.  An
exit-0 run prints the same bytes and writes the same files from a second
directory, and each file it writes reads back and rewrites to its own bytes.
A drawn count is at most 300 or lies past the float64 limit (or is no
integer), so nothing large is ever allocated.  ``vfield`` is left out: its
substep count grows with the drawn speeds.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from dissdim import cli
from dissdim import io as dio

SPECIAL = ["0", "-0", "1e308", "-1e308", "5e-324", "1e400", "nan", "inf"]
HUGE_INT = "1" + "0" * 400   # an integer beyond the float64 range


def decimals(lo, hi):
    return st.floats(lo, hi).map(repr)


def integers(lo, hi):
    return st.integers(lo, hi).map(str)


signed = st.tuples(st.booleans(), st.floats(1e-6, 1e6)).map(
    lambda t: repr(-t[1] if t[0] else t[1]))
fraction = st.tuples(st.integers(-100, 100), st.integers(1, 100)).map(lambda t: f"{t[0]}/{t[1]}")
# any number: a special, an ordinary decimal or integer, or a fraction a/b
anything = st.one_of(st.sampled_from(SPECIAL), signed, integers(-10 ** 6, 10 ** 6), fraction)
# a count: small, or a special below 1e4 or past the float64 limit, so that
# no grid or measure is large
any_count = st.one_of(st.sampled_from([s for s in SPECIAL if s != "1e308"] + [HUGE_INT]),
                      integers(-3, 300), decimals(1e-6, 300.0), fraction)


def value(typical, other=anything):
    """A value that a run would use three times in four, else ``other``."""
    return st.sampled_from([typical] * 3 + [other]).flatmap(lambda values: values)


exponent = value(st.one_of(integers(3, 12), st.sampled_from(["inf", "9/2", "7/2"]),
                           decimals(3.0, 20.0)))
# flag -> strategy of its value, or None for a flag without one
EXPONENTS_FLAGS = {
    "--regime": st.sampled_from(["euler", "euler", "ns", "claw", "x"]),
    "--d": value(integers(1, 4), st.one_of(anything, st.just(HUGE_INT))),
    "--q": exponent,
    "--r": exponent,
    "--alpha": value(st.one_of(integers(1, 3), decimals(0.1, 4.0))),
    "--unbounded-pressure": None,
}
BURGERS_FLAGS = {
    "--ul": value(decimals(-2.0, 2.0)),
    "--ur": value(decimals(-2.0, 2.0)),
    "--x0": value(decimals(-0.5, 0.5)),
    "--a": value(decimals(-2.0, -0.5)),
    "--b": value(decimals(0.5, 2.0)),
    "--nx": value(integers(2, 65), any_count),
    "--T": value(decimals(1e-3, 2.0)),
    "--nt": value(integers(2, 33), any_count),
    "--measure-atoms": value(integers(1, 64), any_count),
    "--field-out": st.just("f"),
    "--measure-out": st.just("m"),
    "--text": None,
}
# drawn three times in four, the others once in two
OFTEN = {"--regime", "--d", "--ul", "--ur", "--field-out", "--measure-out", "--nx", "--nt"}
NUMERIC = {flag for flags in (EXPONENTS_FLAGS, BURGERS_FLAGS) for flag in flags} - {
    "--regime", "--unbounded-pressure", "--field-out", "--measure-out", "--text"}


@st.composite
def argvs(draw, command, flags):
    """An argv of ``command`` from a subset of ``flags``, each value drawn
    from its strategy, in a drawn order."""
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        if not draw(st.sampled_from([True] * (3 if flag in OFTEN else 1) + [False])):
            continue
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


def magnitude(token: str) -> float:
    """|x| of a drawn number; NaN for a word that is no number."""
    try:
        return abs(float(token))
    except ValueError:
        pass
    try:
        return abs(float(Fraction(token)))
    except (ValueError, ZeroDivisionError):
        return math.nan


def run(argv, cwd):
    """(exit code, stdout, RuntimeWarnings) of ``cli.main(argv)`` run in ``cwd``."""
    out = io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


def not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def files(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def check_contract(argv):
    sizes = [magnitude(value) for flag, value in zip(argv, argv[1:]) if flag in NUMERIC]
    huge = any(m >= 1e300 for m in sizes)
    ordinary = all(m == 0 or 1e-6 <= m <= 1e6 for m in sizes)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        first.mkdir()
        second.mkdir()
        code, out, warned = run(argv, first)
        assert code in (0, 2) or (code == 3 and huge), (code, out)
        data = json.loads(out, parse_constant=not_json)   # exactly one JSON object
        assert isinstance(data, dict) and data["schema"] == "dissdim/1"
        if code:
            assert set(data) == {"schema", "error"}
            assert set(data["error"]) == {"type", "message"}
            assert all(isinstance(v, str) and v for v in data["error"].values())
        if ordinary:
            assert not warned, [str(w.message) for w in warned]
        if code:
            return
        assert run(argv, second)[:2] == (0, out)
        written = files(first)
        assert files(second) == written
        binary = "--text" not in argv
        for name, body in written.items():
            rewritten = first / f"{name}.again"
            if name == "f":
                dio.write_field(rewritten, dio.read_field(first / name), binary=binary)
            else:
                dio.write_measure(rewritten, dio.read_measure(first / name), binary=binary)
            assert rewritten.read_bytes() == body, name


CONTRACT = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(argv=argvs("exponents", EXPONENTS_FLAGS))
@example(argv=["exponents", "--regime", "euler", "--d", "3", "--q", "nan"])
@example(argv=["exponents", "--regime", "euler", "--d", "1", "--q", "9/2", "--unbounded-pressure"])
@example(argv=["exponents", "--regime", "ns", "--d", "1", "--q", "3", "--r", "3", "--alpha",
               "5e-324"])
@example(argv=["exponents", "--regime", "euler", "--d", "3", "--q", "1e308", "--r", "1e308"])
def test_exponents_keeps_the_cli_contract(argv):
    check_contract(argv)


@CONTRACT
@given(argv=argvs("burgers", BURGERS_FLAGS))
@example(argv=["burgers", "--ul", "1", "--ur", "-1", "--x0", "5e-324", "--T", "1e-6", "--nx", "9",
               "--nt", "3", "--measure-atoms", "4", "--field-out", "f", "--measure-out", "m",
               "--text"])
@example(argv=["burgers", "--ul", "1e308", "--ur", "-1e308", "--nx", "5", "--nt", "3",
               "--field-out", "f", "--measure-out", "m"])
@example(argv=["burgers", "--ul", "-1", "--ur", "1", "--T", "1e308", "--measure-out", "m"])
def test_burgers_keeps_the_cli_contract(argv):
    check_contract(argv)


def test_the_strategies_draw_every_flag():
    # a new flag fails here until the strategies draw it
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for command, flags in (("exponents", EXPONENTS_FLAGS), ("burgers", BURGERS_FLAGS)):
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == set(flags), command
