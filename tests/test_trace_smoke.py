"""Smoke test: the span tracer of `bench/spans.py` still runs on the library.

`bench/run.py --trace 1` wraps every public function of the traced modules
and reads some of their arguments (`rat_rref(rows, ncols)`, `image_lines`).
One traced `chain verify` per ring, through `cli.run`, must give the golden
report and record the closure enumeration.  `bench/spans.py` is loaded from
its file and not modified.
"""

import importlib.util
from pathlib import Path

import pytest

import slopechain
from slopechain import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("config", ["plane_basic", "sym_plane"])
def test_traced_chain_verify(tmp_path, config):
    out = tmp_path / "report"
    tracer = _tracer_class()(slopechain, keep_spans=False)
    tracer.install()
    try:
        tracer.enabled = True
        rc = cli.run(["chain", "verify", "-c", str(GOLDEN / f"{config}.json"), "--out", str(out)])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{config}.chain_verify.out").read_bytes()
    table = tracer.layer_table()
    assert table["cli"][0] == 1
    assert table["model.enumerate_closures"][0] == 1
    assert tracer.counters["model.enumerate_closures.closures"] > 0
    # uninstalled: the module binds the plain function again
    assert not hasattr(cli.run, "__wrapped__")
