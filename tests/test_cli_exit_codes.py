"""The CLI exit-code contract under arbitrary numeric flags (in-process).

Every run of `cli.main` must return, or exit, with 0 success, 2 usage,
3 input file or 4 numerical failure; no other exception may escape.  A
run prints at most one line to stderr and raises no numpy
RuntimeWarning.  The model's validity-range UserWarning (J below 2 A)
is part of the output and stays allowed.  Values are passed as
`--flag=value`, so a negative or `-inf` value reaches the program's own
checks instead of stopping in argparse.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings, strategies as st
import pytest

from spinscan import cli

CONTRACT = {0, 2, 3, 4}

SPECIAL = [0.0, -1.0, 1e-6, 1e300, -1e300, math.inf, -math.inf, math.nan]


def values(lo, hi):
    return st.one_of(st.floats(min_value=lo, max_value=hi), st.sampled_from(SPECIAL))


@pytest.fixture(scope="module")
def texture(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit") / "t.spintex"
    argv = ["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
            "--pattern", "afm-neel", "--out", str(path)]
    assert cli.main(argv) == 0
    return path


def run(argv):
    """Exit code, stderr lines and warnings of one in-process CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().strip().splitlines(), caught


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["scan", "spectrum", "reconstruct"]),
    step=values(0.3, 3.0),
    height=values(1.0, 20.0),
    lam=values(0.0, 1e3),
    baseline=values(1.0, 1e6),
)
def test_numeric_flags_keep_the_exit_contract(texture, command, step, height,
                                              lam, baseline):
    out = texture.with_name(f"{command}.out")
    argv = [command, "--texture", texture, f"--step={step}", f"--height={height}",
            "--mode", "both", "--out", out]
    if command == "spectrum":
        argv += [f"--tip=1.5,1.5,{height}", f"--baseline={baseline}"]
    elif command == "reconstruct":
        argv += ["--synthetic", f"--lam={lam}"]
    code, stderr, caught = run(argv)
    assert code in CONTRACT
    assert len(stderr) <= 1, stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["scan", "--xmin=1e300", "--xmax=1e300"],
    ["spectrum", "--tip=1e300,0,4"],
    ["spectrum"],                                  # --texture without --tip
    ["reconstruct", "--synthetic", "--lam", "-1e300"],  # argparse's own error
])
def test_usage_errors_are_one_line(texture, argv):
    out = texture.with_name("usage.out")
    code, stderr, caught = run([*argv, "--texture", texture, "--out", out])
    assert code == 2
    assert len(stderr) == 1, stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
