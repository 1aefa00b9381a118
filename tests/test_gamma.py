import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from slopechain import (
    CertificateViolation,
    EnumerationTooLarge,
    GroupModel,
    ModelConfig,
    NotNested,
    build_chain,
    build_model,
    card_mod,
    card_translate,
    cli,
    closure,
    combine,
    counting_check,
    distribution_checks,
    enumerate_gamma,
    gamma_from_vectors,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def rational_model(n, gens, scales):
    return build_model(ModelConfig(n=n, generators=tuple(gens), scales=tuple(scales)))


def plane_model(s1, s2):
    return rational_model(2, [(1, 0), (0, 1)], (s1, s2))


class TestEnumerate:
    def test_line_box(self):
        m = rational_model(1, [(1,)], ("3",))
        om = enumerate_gamma(m)
        assert sorted(p[0] for p in om.points) == [-2, -1, 0, 1, 2]

    def test_dependent_generators_collapse(self):
        # 9 tuples map onto the 7 points -3..3
        m = rational_model(1, [(1,), (2,)], ("2", "2"))
        om = enumerate_gamma(m)
        assert len(om) == 7
        assert sorted(p[0] for p in om.points) == list(range(-3, 4))

    def test_fractional_lambda(self):
        m = rational_model(1, [(1,)], ("3",))
        om = enumerate_gamma(m, F(1, 2))
        assert sorted(p[0] for p in om.points) == [-1, 0, 1]

    def test_monotone_in_lambda(self):
        m = plane_model("7/2", "2")
        small = enumerate_gamma(m, F(1))
        big = enumerate_gamma(m, F(2))
        assert len(small) <= len(big)
        small_reps = {e[0] for e in small.entries}
        big_reps = {e[0] for e in big.entries}
        assert small_reps <= big_reps

    def test_limit_guard(self):
        m = plane_model(100, 100)
        with pytest.raises(EnumerationTooLarge):
            enumerate_gamma(m, 1, limit=100)

    def test_witnesses_in_box(self):
        m = rational_model(1, [(1,), (2,)], ("5/2", "2"))
        om = enumerate_gamma(m)
        for _, witness in om.entries:
            assert abs(witness[0]) < F(5, 2)
            assert abs(witness[1]) < 2

    def test_points_follow_witnesses_and_are_built_once(self):
        m = rational_model(2, [("1/2", 0), ("1/3", "2/5"), (1, 0)], ("5/2", "2", "2"))
        om = enumerate_gamma(m)
        assert om.points is om.points
        assert om.points == tuple(m.point_of(w) for w in om.witnesses)
        assert len(set(om.points)) == len(om)


class TestLazyPoints:
    """`gamma count` and `gamma check` read witnesses only: the one image
    they need is that of the H' and H'' lattice generators, to close them."""

    @pytest.mark.parametrize("config", ["plane_basic", "dependent_three"])
    @pytest.mark.parametrize("action", ["count", "check"])
    def test_count_and_check_build_no_box_point(self, tmp_path, monkeypatch, config, action):
        real_closure, real_point_of = cli.closure, GroupModel.point_of
        closing = []

        def closure_only(model, lattice):
            closing.append(lattice)
            try:
                return real_closure(model, lattice)
            finally:
                closing.pop()

        def point_of(model, vector):
            if not closing:
                raise AssertionError(f"box point built for {vector}")
            return real_point_of(model, vector)

        monkeypatch.setattr(cli, "closure", closure_only)
        monkeypatch.setattr(GroupModel, "point_of", point_of)
        out = tmp_path / "report"
        code = cli.run(["gamma", action, "-c", str(GOLDEN / f"{config}.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{config}.gamma_{action}.out").read_bytes()


class TestCardMod:
    def test_full_over_zero_is_cardinality(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        assert card_mod(m, om, m.full_subgroup(), m.zero_subgroup()) == len(om)

    def test_diagonal_points(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        diag = closure(m, [(1, 1)])
        # direct enumeration oracle: points (k, k) need |k| < 2
        assert card_mod(m, om, diag, m.zero_subgroup()) == 3

    def test_classes_mod_x_axis(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        x_axis = closure(m, [(1, 0)])
        assert card_mod(m, om, m.full_subgroup(), x_axis) == 3

    def test_not_nested(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        diag = closure(m, [(1, 1)])
        x_axis = closure(m, [(1, 0)])
        with pytest.raises(NotNested):
            card_mod(m, om, diag, x_axis)
        # one generator (1, 0): the x-axis and G share the lattice Z^1, but
        # G is not inside the x-axis
        m = rational_model(2, [(1, 0)], (3,))
        x_axis = closure(m, [(1,)])
        full = m.full_subgroup()
        assert x_axis.coeff == full.coeff
        with pytest.raises(NotNested):
            card_mod(m, enumerate_gamma(m), x_axis, full)
        with pytest.raises(NotNested):
            counting_check(m, x_axis, full, [F(1), F(2)])

    def test_collapse_monotone(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        x_axis = closure(m, [(1, 0)])
        full = m.full_subgroup()
        assert card_mod(m, om, full, m.zero_subgroup()) >= card_mod(m, om, full, x_axis)


class TestCombine:
    def test_singleton(self):
        m = rational_model(1, [(1,)], ("2",))
        om = gamma_from_vectors(m, [(0,)])
        assert combine(m, om, 3, "sumset") == ((F(0),),)
        assert combine(m, om, 3, "diffset") == ((F(0),),)

    def test_pair_sums_and_differences(self):
        m = rational_model(1, [(1,)], ("2",))
        om = gamma_from_vectors(m, [(0,), (1,)])
        sums = sorted(p[0] for p in combine(m, om, 2, "sumset"))
        assert sums == [0, 1, 2]
        diffs = sorted(p[0] for p in combine(m, om, 2, "diffset"))
        assert diffs == [-2, -1, 0, 1, 2]

    def test_sumset_inclusion_in_scaled_box(self):
        # exhaustive: Gamma(2)[2]—so sums of two elements—sits inside Gamma(3)
        m = rational_model(1, [(1,)], ("2",))
        om = enumerate_gamma(m)
        sums = combine(m, om, 2, "sumset")
        m3 = rational_model(1, [(1,)], ("3",))
        target = {p for p in enumerate_gamma(m3).points}
        assert set(sums) <= target


class TestCountingCheck:
    def test_box_count_example(self):
        m = plane_model(100, 10)
        report = counting_check(m, m.full_subgroup(), m.zero_subgroup(), ["1"])
        # closed-form box count (2*100-1)(2*10-1)
        assert report.raw_count == 3781
        assert report.n_formula_value == 1000
        assert report.ratio == F(3781, 1000)

    def test_diagonal_ratio_bracket(self):
        for s1, s2 in [(5, 3), (9, 4), ("13/2", "7/2")]:
            m = plane_model(s1, s2)
            diag = closure(m, [(1, 1)])
            report = counting_check(m, diag, m.zero_subgroup(), ["1"])
            assert 1 < report.ratio <= 2

    def test_lambda_sweep_exponent(self):
        m = plane_model(9, 5)
        report = counting_check(
            m, m.full_subgroup(), m.zero_subgroup(), ["1", "2", "4"]
        )
        assert report.rank == 2
        assert round(report.fitted_exponent) == 2
        diag = closure(m, [(1, 1)])
        report = counting_check(m, diag, m.zero_subgroup(), ["1", "2", "4"])
        assert report.rank == 1
        assert round(report.fitted_exponent) == 1

    def test_translate_bound(self):
        # counting in a coset never beats the doubled box count in the group
        m = plane_model(4, 3)
        om = enumerate_gamma(m, 1)
        om2 = enumerate_gamma(m, 2)
        x_axis = closure(m, [(1, 0)])
        rng = random.Random(41)
        base = card_mod(m, om2, x_axis, m.zero_subgroup())
        for _ in range(10):
            x = rng.choice(om.witnesses)
            assert card_translate(m, om, x, x_axis) <= base


class TestDistributionChecks:
    def test_plane_model_bounded(self):
        m = plane_model(9, 3)
        chain = build_chain(m)
        report = distribution_checks(m, chain, F(1, 2), scale_factor=2, height=1)
        assert report.bracket_ok
        upper_base = report.upper[1]
        # the motivating candidate H = G appears at the last step
        last = chain.r - 1
        assert any(e.candidate == m.full_subgroup().coeff.rows for e in upper_base[last])
        lower_base = report.lower[1]
        for i, entries in lower_base.items():
            for e in entries:
                assert e.count > 0

    def test_scaling_check_rejects_chain_of_other_scales(self):
        # the (3, 3) chain has dims (0, 2); the (9, 3) model's has (0, 1, 2)
        m = plane_model(9, 3)
        chain = build_chain(plane_model(3, 3))
        with pytest.raises(CertificateViolation) as err:
            distribution_checks(m, chain, F(1, 2), height=1)
        assert err.value.kind == "scaling"
        assert "S -> S^1" in str(err.value)

    def test_degenerate_chain_empty_candidates(self):
        m = rational_model(2, [], ())
        chain = build_chain(m)
        report = distribution_checks(m, chain, F(1, 2))
        assert all(not entries for entries in report.upper[1].values())
        assert all(not entries for entries in report.lower[1].values())
