"""Golden CLI reports: every case must reproduce its stored bytes exactly.

Each case is (config name, subcommand, exit code).  The config lives in
`tests/golden/<name>.json`; the expected bytes in
`tests/golden/<name>.<group>_<action>.out` are the report written by `--out`
on exit 0, and the JSON error written to stdout otherwise.
"""

from pathlib import Path

import pytest

from slopechain import cli, linalg

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_COMMANDS = [
    ("chain", "build"), ("chain", "verify"), ("mu",), ("gamma", "enumerate"),
    ("gamma", "count"), ("gamma", "check"), ("locus", "rank"), ("locus", "probe"),
    ("locus", "sweep"), ("polygon", "export"),
]
CHAIN_COMMANDS = [("chain", "build"), ("chain", "verify"), ("mu",), ("polygon", "export")]
BOX_COMMANDS = [("gamma", "enumerate"), ("gamma", "count"), ("gamma", "check")]

CASES = (
    [("plane_basic", argv, 0) for argv in ALL_COMMANDS]
    + [("plane_steep", argv, 0) for argv in CHAIN_COMMANDS]
    + [("dependent_three", argv, 0) for argv in CHAIN_COMMANDS + BOX_COMMANDS]
    + [("space_three_step", argv, 0) for argv in CHAIN_COMMANDS]
    + [("fractional_unsorted", argv, 0)
       for argv in CHAIN_COMMANDS + [("gamma", "enumerate")]]
    + [("line_univariate", argv, 0)
       for argv in [("locus", "rank"), ("locus", "probe"), ("locus", "sweep")]]
    + [("plane_probe", ("locus", "probe"), 0), ("plane_probe", ("locus", "sweep"), 0)]
    + [("plane_dependent", argv, 0)
       for argv in [("locus", "rank"), ("locus", "probe"), ("locus", "sweep")]]
    + [("rational_zero_generator", argv, 0)
       for argv in CHAIN_COMMANDS + BOX_COMMANDS]
    + [(name, argv, 0)
       for name in ("fractional_dependent", "fractional_independent")
       for argv in [("locus", "rank"), ("locus", "probe"), ("locus", "sweep"),
                    ("gamma", "enumerate")]]
    + [
        ("bad_epsilon", ("chain", "build"), 1),
        ("too_large", ("locus", "rank"), 1),
        ("plane_steep", ("gamma", "count"), 1),
        ("plane_steep", ("locus", "sweep"), 1),
    ]
    + [("sym_line", argv, 0) for argv in CHAIN_COMMANDS + [("gamma", "enumerate")]]
    + [("sym_plane", argv, 0) for argv in CHAIN_COMMANDS + BOX_COMMANDS]
    + [("sym_plane", ("locus", "rank"), 1)]
    + [
        ("sym_two_symbols", ("chain", "build"), 0),
        ("sym_two_symbols", ("chain", "verify"), 2),
        ("sym_two_symbols", ("mu",), 0),
    ]
    + [("sym_declared_rational", argv, 0) for argv in CHAIN_COMMANDS]
    + [("sym_space", argv, 0) for argv in CHAIN_COMMANDS]
)


def golden_path(name, argv):
    return GOLDEN / f"{name}.{'_'.join(argv)}.out"


@pytest.mark.parametrize(
    "name, argv, code", CASES, ids=[f"{n}-{'_'.join(a)}" for n, a, _ in CASES]
)
def test_golden_report(name, argv, code, tmp_path, capsys):
    out = tmp_path / "report"
    config = str(GOLDEN / f"{name}.json")
    assert cli.run(list(argv) + ["-c", config, "--out", str(out)]) == code
    body = out.read_bytes() if code == 0 else capsys.readouterr().out.encode()
    assert body == golden_path(name, argv).read_bytes()


@pytest.mark.parametrize("action", ["rank", "probe", "sweep"])
def test_locus_reports_form_no_fraction_in_linalg(action, tmp_path, monkeypatch):
    # the jet lab eliminates and reads its kernels in integers
    def no_fraction(*args):
        raise AssertionError("linalg formed a Fraction")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    argv = ("locus", action)
    out = tmp_path / "report"
    config = str(GOLDEN / "plane_basic.json")
    assert cli.run(list(argv) + ["-c", config, "--out", str(out)]) == 0
    assert out.read_bytes() == golden_path("plane_basic", argv).read_bytes()
