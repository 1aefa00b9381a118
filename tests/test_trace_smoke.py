"""Smoke test: the span tracer of `bench/spans.py` still runs on the library.

`bench/run.py --trace 1` wraps every public function of the traced modules
and reads some of their arguments (`rat_rref(rows, ncols)`, `image_lines`).
One traced `chain verify` per ring, through `cli.run`, must give the golden
report and record the closure enumeration; over Q its subgroup inclusions
and its closures must run no elimination and each left kernel must be one
HNF, and over Q[t] its closures must multiply no polynomials.  One traced
`locus sweep` on dependent generators must give the golden report from one
jet matrix and one elimination in all, and on independent ones from none;
neither decides membership by calling `in_base_locus`.
A traced `gamma enumerate` must count one point per box entry, and a traced
`gamma count` must make one lattice walk and enumerate no box; modulo a
nonzero lattice, the walk queues its last intervals and reduces them with
one `linalg.lattice_reduce_columns` call per chunk, not one per interval.
`bench/spans.py` is loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path

import pytest

import slopechain
from slopechain import build_model, cli, enumerate_gamma
from slopechain.chain import SCALING_ALPHAS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _traced_run(tmp_path, config, command):
    """Run one subcommand on a golden config under the tracer; returns the
    tracer after checking the exit code and the report bytes."""
    out = tmp_path / "report"
    tracer = _tracer_class()(slopechain, keep_spans=False)
    tracer.install()
    try:
        tracer.enabled = True
        rc = cli.run([*command, "-c", str(GOLDEN / f"{config}.json"), "--out", str(out)])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{config}.{'_'.join(command)}.out").read_bytes()
    return tracer


@pytest.mark.parametrize("config", ["plane_basic", "sym_plane"])
def test_traced_chain_verify(tmp_path, config):
    tracer = _traced_run(tmp_path, config, ("chain", "verify"))
    table = tracer.layer_table()
    assert table["cli"][0] == 1
    assert table["model.enumerate_closures"][0] == 1
    assert tracer.counters["model.enumerate_closures.closures"] > 0
    # one build for the report, one rebuild per scaling power, no more
    assert table["chain.build_chain"][0] == 1 + len(SCALING_ALPHAS)
    assert tracer.child_calls("chain.verify_chain", "chain.build_chain") == len(SCALING_ALPHAS)
    if config == "plane_basic":
        # subgroup inclusion compares lattices and runs no elimination
        assert table["model.span_contains"][0] > 0
        for kernel in ("hnf", "left_kernel", "rat_rref", "nullspace"):
            assert tracer.child_calls("model.span_contains", f"linalg.{kernel}") == 0
        # a left kernel is one HNF of [A | I], with no unimodular transform
        assert "linalg.hnf_transform" not in table
        kernels = table["linalg.left_kernel"][0]
        assert kernels > 0
        assert tracer.child_calls("linalg.left_kernel", "linalg.hnf") == kernels
    # rational closures are saturated in integers and symbolic ones are read
    # off integer specializations: no Fraction elimination, no Poly product
    assert "linalg.rat_rref" not in table
    if config == "sym_plane":
        assert tracer.counters["polys.mul.calls"] == 0
    # uninstalled: the module binds the plain function again
    assert not hasattr(cli.run, "__wrapped__")


def test_traced_locus_sweep_eliminates_once(tmp_path):
    # e1, e2, e1 + e2 and D = 1..6: one jet matrix at D = 6 and one
    # elimination under the sweep; the chain build's closures run none
    tracer = _traced_run(tmp_path, "plane_dependent", ("locus", "sweep"))
    table = tracer.layer_table()
    assert table["cli"][0] == 1
    assert table["locus.jet_matrix"][0] == 1
    assert tracer.child_calls("locus.threshold_sweep", "locus.jet_matrix") == 1
    assert tracer.child_calls("locus.threshold_sweep", "linalg.rat_rref") == 1
    assert table["linalg.rat_rref"][0] == 1
    # the per-layer entry size is read off the integer rows and echelon
    assert tracer.maxima["linalg.rat_rref.max_entry_bits"] > 0
    assert "locus.kernel_basis" not in table
    # membership is read off one evaluation per sample, not the public test
    assert tracer.child_calls("locus.threshold_sweep", "locus.in_base_locus") == 0


@pytest.mark.parametrize("command", [("locus", "sweep"), ("locus", "probe"), ("locus", "rank")])
def test_traced_independent_locus_eliminates_nothing(tmp_path, command):
    # e1, e2: rank, nullity and membership in closed form, with no jet
    # matrix, no elimination and no public membership test
    table = _traced_run(tmp_path, "plane_basic", command).layer_table()
    assert table["cli"][0] == 1
    for name in ("locus.jet_matrix", "linalg.rat_rref", "locus.kernel_basis",
                 "locus.eval_rank", "locus.in_base_locus"):
        assert name not in table


@pytest.mark.parametrize("action", ["enumerate", "count"])
def test_traced_gamma_counts_one_point_per_entry(tmp_path, action):
    tracer = _traced_run(tmp_path, "plane_basic", ("gamma", action))
    table = tracer.layer_table()
    if action == "count":
        # card_mod walks the lattice of H' and reduces no box tuple
        assert "gamma.enumerate_gamma" not in table
        assert table["gamma.card_mod"][0] == 1
        return
    cfg = cli.parse_config((GOLDEN / "plane_basic.json").read_text())
    omega = enumerate_gamma(build_model(cfg.model), cfg.lam)
    assert table["gamma.enumerate_gamma"][0] == 1
    assert tracer.counters["gamma.enumerate_gamma.points"] == len(omega.entries) == 15


def test_traced_gamma_count_reduces_once_per_chunk(tmp_path):
    # dependent_three counts the line of e_1 modulo 0, whose lattice is the
    # relation lattice spanned by (1, 1, -1): its few last intervals fill
    # less than one chunk, so they are reduced in one call
    tracer = _traced_run(tmp_path, "dependent_three", ("gamma", "count"))
    assert tracer.layer_table()["gamma.card_mod"][0] == 1
    assert tracer.child_calls("gamma.card_mod", "linalg.lattice_reduce_columns") == 1
