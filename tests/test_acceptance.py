"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 share a corpus of 200 seeded random rational models (n <= 4,
l <= 4, scales in [1, 100]).  The sampler favors structured generator
families (sparse small entries, zero generators, low-rank families, repeated
scales): these keep the exhaustive height-2 candidate enumeration in the
hundreds while exercising nontrivial kernels, scale ties, and multi-step
chains; fully generic four-generator families in dimension >= 3 have
height-2 candidate posets with tens of thousands of members and certify
nothing extra.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

import slopechain as sc
from slopechain import cli


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", flush=True)
        raise
    print(f"PASS criterion {number}: {description}", flush=True)


# ---------------------------------------------------------------------------
# corpus for criteria 1-4


def _draw_scales(rng, l):
    scales = []
    for _ in range(l):
        kind = rng.random()
        if kind < 0.25 and scales:
            scales.append(scales[-1])            # ties exercise segment merging
        elif kind < 0.5:
            scales.append(F(rng.randint(1, 100)))
        else:
            scales.append(F(rng.randint(4, 400), rng.randint(1, 4)))
    return tuple(max(s, F(1)) for s in scales)


def _small_vec(rng, n):
    return tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n))


def _draw_generators(rng, n, l):
    if l <= 3:
        return [_small_vec(rng, n) for _ in range(l)]
    if rng.random() < 0.5:
        gens = [_small_vec(rng, n) for _ in range(3)]
        gens.insert(rng.randrange(4), tuple(0 for _ in range(n)))
        return gens
    a, b = _small_vec(rng, n), _small_vec(rng, n)
    gens = []
    for _ in range(l):
        ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
        gens.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
    return gens


def _draw_model(rng):
    n = rng.randint(1, 4)
    l = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4))
    gens = _draw_generators(rng, n, l)
    return sc.build_model(sc.ModelConfig(
        n=n, generators=tuple(gens), scales=_draw_scales(rng, l)
    ))


N_MODELS = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(0xC0FFEE)
    out = []
    for _ in range(N_MODELS):
        model = _draw_model(rng)
        out.append((model, sc.build_chain(model)))
    return out


def _keys(chain):
    return [(s.dim, s.coeff.rows) for s in chain.subgroups]


def test_criterion_1_chain_oracle_equivalence(corpus):
    with criterion(1, "fast path = greedy path and exhaustive height-2 "
                      f"certificates on {N_MODELS} random rational models"):
        start = time.time()
        for model, chain in corpus:
            greedy = sc.build_chain_greedy(model)
            assert _keys(chain) == _keys(greedy), (model.generators, model.scales)
            cert = sc.verify_chain(model, chain, sc.VerifyOptions(height=2))
            assert all(s <= 0 for c in cert.candidates for s in c.chi_signs)
        elapsed = time.time() - start
        assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s (budget 300s)"


def test_criterion_2_slope_and_frak_ordering(corpus):
    with criterion(2, "strict slope decrease and frak_S ordering on every chain"):
        for model, chain in corpus:
            for i in range(chain.r - 1):
                assert sc.compare_slopes(
                    model, chain.steps[i].slope, chain.steps[i + 1].slope
                ) > 0
                assert chain.steps[i].frak_s.compare(chain.steps[i + 1].frak_s) > 0
            assert chain.steps[-1].frak_s.compare_fraction(F(1)) >= 0


def test_criterion_3_scaling_invariance(corpus):
    with criterion(3, "chains invariant under S -> S^alpha, alpha in {2, 3}"):
        for model, chain in corpus:
            base = _keys(chain)
            for alpha in (2, 3):
                assert _keys(sc.build_chain(model.powered(alpha))) == base


def test_criterion_4_telescoping_identity(corpus):
    with criterion(4, "product of step radicands telescopes to "
                      "prod S_j^(rk jump) exactly"):
        for model, chain in corpus:
            product = F(1)
            for step in chain.steps:
                product *= step.frak_s.radicand
            ranks = (0,) + sc.rank_profile(model, model.full_subgroup()).gamma_ranks
            expected = F(1)
            for j in range(1, model.l + 1):
                expected *= model.scales[j - 1] ** (ranks[j] - ranks[j - 1])
            assert product == expected


def test_criterion_5_symbolic_arithmetic():
    with criterion(5, "symbolic line model: mu* = 2, mu = 0, x-axis chain, "
                      "frak_S_0 = S^2, certified at height 3"):
        for s in (F(5), F(7)):
            model = sc.build_model(sc.ModelConfig(
                n=2,
                generators=(("1", "0"), ({"const": "0", "coeffs": {"t1": "1"}}, "0")),
                scales=(s, s),
                symbols=("tau",),
            ))
            chain = sc.build_chain(model)
            assert chain.dims() == (0, 1, 2)
            assert chain.subgroups[1].coeff.rows == ((1, 0), (0, 1))
            assert chain.steps[0].frak_s == sc.RootedRational(s ** 2, 1)
            assert chain.steps[1].frak_s == sc.RootedRational(F(1), 1)
            report = sc.mu_exponents(model)
            assert report.mu_star == 2 and report.mu == 0
            cert = sc.verify_chain(model, chain, sc.VerifyOptions(height=3))
            assert cert.telescoping_ok and cert.psi_injective


def test_criterion_6_counting_estimates():
    with criterion(6, "box counts within (1, 4) of the closed form and "
                      "lambda exponents equal to exact ranks on 20 scale pairs"):
        rng = random.Random(6)
        pairs = []
        while len(pairs) < 20:
            def draw():
                if rng.random() < 0.5:
                    return F(rng.randint(2, 12))
                k = rng.randint(1, 10)
                den = rng.choice((3, 4, 5))
                num = rng.randint(den // 2 + 1, den - 1)   # fractional part > 1/2
                return F(k) + F(num, den)
            s1, s2 = draw(), draw()
            pairs.append((max(s1, s2), min(s1, s2)))
        for s1, s2 in pairs:
            model = sc.build_model(sc.ModelConfig(
                n=2, generators=((1, 0), (0, 1)), scales=(s1, s2)
            ))
            import math
            closed_form = (2 * math.ceil(s1) - 1) * (2 * math.ceil(s2) - 1)
            assert len(sc.enumerate_gamma(model)) == closed_form
            ratio = F(closed_form) / (s1 * s2)
            assert 1 < ratio < 4
            diag = sc.closure(model, [(1, 1)])
            x_axis = sc.closure(model, [(1, 0)])
            nested = [
                (model.full_subgroup(), model.zero_subgroup(), 2),
                (diag, model.zero_subgroup(), 1),
                (model.full_subgroup(), x_axis, 1),
            ]
            for hp, hdp, expected_rank in nested:
                report = sc.counting_check(model, hp, hdp, (F(1), F(2), F(4)))
                assert report.rank == expected_rank
                assert round(report.fitted_exponent) == expected_rank


def test_criterion_7_univariate_base_locus_law():
    with criterion(7, "univariate kernel dimensions and base-locus membership "
                      "exhaustively for D <= 12, T <= 3, S in {2, 3}"):
        start = time.time()
        for s in (2, 3):
            model = sc.build_model(sc.ModelConfig(
                n=1, generators=((1,),), scales=(str(s),)
            ))
            omega = sc.enumerate_gamma(model)
            points = omega.points
            gamma_values = {p[0] for p in points}
            grid = [F(x) for x in range(-s, s + 1)] + [F(1, 2), F(-1, 2)]
            for t in (1, 2, 3):
                threshold = t * (2 * s - 1)
                for d in range(1, 13):
                    kb = sc.kernel_basis(model, points, t, d)
                    assert len(kb.vectors) == max(0, d + 1 - threshold)
                    assert (len(kb.vectors) == 0) == (d < threshold)
                    grid_matches = all(
                        sc.in_base_locus(kb, (x,)) == (x in gamma_values)
                        for x in grid
                    )
                    assert grid_matches == (d >= threshold)
        elapsed = time.time() - start
        assert elapsed < 60, f"criterion 7 took {elapsed:.1f}s (budget 60s)"


def test_criterion_8_planar_middle_regime():
    with criterion(8, "planar sandwich: base locus is G, then three lines, "
                      "then Gamma(S), with >= 100 clean samples per regime"):
        start = time.time()
        model = sc.build_model(sc.ModelConfig(
            n=2, generators=((1, 0), (0, 1)), scales=("3", "2")
        ))
        chain = sc.build_chain(model)
        omega = sc.enumerate_gamma(model)
        gamma_points = set(omega.points)
        line_levels = {F(-1), F(0), F(1)}

        rng = random.Random(8)
        samples = []
        while len(samples) < 120:
            style = rng.random()
            if style < 0.3:
                samples.append((F(rng.randint(-4, 4)), F(rng.randint(-4, 4))))
            elif style < 0.6:
                samples.append((
                    F(rng.randint(-12, 12), rng.randint(1, 3)),
                    rng.choice(sorted(line_levels)),
                ))
            else:
                samples.append((
                    F(rng.randint(-12, 12), rng.randint(1, 4)),
                    F(rng.randint(-12, 12), rng.randint(1, 4)),
                ))
        samples.extend(omega.points)

        for d in range(1, 7):
            kb = sc.kernel_basis(model, omega.points, 1, d)
            for x in samples:
                if d <= 2:
                    predicted = True
                elif d <= 4:
                    predicted = x[1] in line_levels
                else:
                    predicted = x in gamma_points
                assert sc.in_base_locus(kb, x) == predicted, (d, x)

        report = sc.threshold_sweep(
            model, chain, 1, range(1, 7), F(1, 2), samples=100, seed=88
        )
        assert {row.degree: row.i_star for row in report.rows} == {
            1: 2, 2: 2, 3: 1, 4: 1, 5: 0, 6: 0
        }
        elapsed = time.time() - start
        assert elapsed < 120, f"criterion 8 took {elapsed:.1f}s (budget 120s)"


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical CLI reports on rerun for every command"):
        config = {
            "n": 2,
            "generators": [["1", "0"], ["0", "1"]],
            "scales": ["3", "2"],
            "T": 1,
            "D": 3,
            "D_range": [2, 4],
            "epsilon": "1/2",
            "seed": 2026,
            "lambda": "1",
            "lambdas": ["1", "2"],
            "h_prime": [[1, 0], [0, 1]],
            "h_dprime": [],
            "limits": {"sample_count": 25},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        commands = [
            ["chain", "build"],
            ["chain", "verify"],
            ["mu"],
            ["gamma", "enumerate"],
            ["gamma", "count"],
            ["gamma", "check"],
            ["locus", "rank"],
            ["locus", "probe"],
            ["locus", "sweep"],
            ["polygon", "export"],
        ]
        for argv in commands:
            first = tmp_path / "first.out"
            second = tmp_path / "second.out"
            assert cli.run(argv + ["-c", str(cfg_path), "--out", str(first)]) == 0
            assert cli.run(argv + ["-c", str(cfg_path), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), argv
