"""The CLI exit-code contract under arbitrary numeric flags (in-process).

Every run of `cli.main` must return, or exit, with 0 success, 2 usage,
3 input file or 4 numerical failure; no other exception may escape.
"""

import math

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


def run(argv) -> int:
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


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
    argv = [command, "--texture", texture, "--step", step, "--height", height,
            "--mode", "both", "--out", out]
    if command == "spectrum":
        argv += ["--tip", f"1.5,1.5,{height}", "--baseline", baseline]
    elif command == "reconstruct":
        argv += ["--synthetic", "--lam", lam]
    assert run(argv) in CONTRACT
