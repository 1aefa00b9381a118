import functools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from slopechain import GammaSet, ModelConfig, build_model, cli, enumerate_gamma, linalg, locus
from slopechain.errors import CertificateViolation, ParseError, ValidationError
from slopechain.model import _parse_coordinate

ROOT = Path(__file__).resolve().parent.parent


BASE = {
    "n": 2,
    "generators": [["1", "0"], ["0", "1"]],
    "scales": ["3", "2"],
    "T": 1,
    "D": 3,
    "seed": 11,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(BASE)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = cli.run(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestParseConfig:
    def test_minimal(self):
        cfg = cli.parse_config(json.dumps(
            {"n": 1, "generators": [["1"]], "scales": ["3"], "T": 1, "D": 3}
        ))
        assert cfg.model.n == 1 and cfg.T == 1 and cfg.D == 3

    def test_bad_json_reports_location(self):
        with pytest.raises(ParseError) as err:
            cli.parse_config("{broken")
        assert "line" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as err:
            cli.parse_config(json.dumps(dict(BASE, bogus=1)))
        assert err.value.field == "bogus"

    @pytest.mark.parametrize("extra, echo", [
        ({"scales": ["6/4", " 3 "], "lambdas": ["+2", "04", 3], "epsilon": "2/4", "lambda": "6/4"},
         {"scales": ["3/2", "3"], "lambdas": ["2", "4", "3"], "epsilon": "1/2", "lambda": "3/2"}),
        ({"scales": ["+2", "04"], "lambdas": [" 3 ", "6/4"], "epsilon": " 1/3 ", "lambda": " 3 "},
         {"scales": ["2", "4"], "lambdas": ["3", "3/2"], "epsilon": "1/3", "lambda": "3"}),
        ({"scales": [5, "10/4"], "lambdas": [1, "+8/2"], "epsilon": "+3/9", "lambda": 7},
         {"scales": ["5", "5/2"], "lambdas": ["1", "4"], "epsilon": "1/3", "lambda": "7"}),
        ({"scales": ["04", 2], "epsilon": "002/008", "lambda": "+2"},
         {"scales": ["4", "2"], "epsilon": "1/4", "lambda": "2"}),
    ])
    def test_echo_is_canonical(self, tmp_path, extra, echo):
        # odd spellings of rationals are echoed in lowest terms, as "p/q" or "p"
        cfg = cli.parse_config(json.dumps(dict(BASE, **extra)))
        assert {key: cfg.echo[key] for key in extra} == echo
        code, out = run_to_file(tmp_path, ["mu", "-c", write_config(tmp_path, extra)])
        assert code == 0
        assert json.loads(out)["config"] == {**BASE, **extra, **echo}

    def test_epsilon_boundary(self):
        with pytest.raises(ValidationError) as err:
            cli.parse_config(json.dumps(dict(BASE, epsilon="1")))
        assert err.value.field == "epsilon"

    def test_unsorted_scales_accepted(self):
        cfg = cli.parse_config(json.dumps(dict(BASE, scales=["3", "5"])))
        assert [str(s) for s in cfg.model.scales] == ["3", "5"]

    def test_limit_validation(self):
        with pytest.raises(ValidationError):
            cli.parse_config(json.dumps(dict(BASE, limits={"sample_count": 0})))

    def test_random_candidates_accepts_its_default(self):
        # 0 is the default of random_candidates, so it must be accepted; no
        # other limit may be 0
        cfg = cli.parse_config(json.dumps(dict(BASE, limits={"random_candidates": 0})))
        assert cfg.limits.random_candidates == 0 == cli.Limits().random_candidates
        for value in (-1, True):
            with pytest.raises(ValidationError) as err:
                cli.parse_config(json.dumps(dict(BASE, limits={"random_candidates": value})))
            assert err.value.field == "limits.random_candidates"

    def test_readme_config_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("Config is a flat JSON object:\n\n```json\n", 1)[1]
        path = tmp_path / "cfg.json"
        path.write_text(block.split("```", 1)[0])
        assert cli.run(["chain", "build", "-c", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("extra, field", [
        pytest.param({"generators": [[1.5, "0"], ["0", "1"]]}, "generators", id="float"),
        pytest.param({"generators": [[{"const": 1.5}, "0"], ["0", "1"]]}, "generators",
                     id="float-const"),
        pytest.param({"generators": [["abc", "0"], ["0", "1"]]}, "generators", id="word"),
        pytest.param({"generators": [[{"coeffs": {"tt": 1}}, "0"], ["0", "1"]],
                      "symbols": ["t1"]}, "generators", id="symbol-tt"),
        pytest.param({"generators": [[{"coeffs": {"t0": 1}}, "0"], ["0", "1"]],
                      "symbols": ["t1"]}, "generators", id="symbol-t0"),
        pytest.param({"generators": [[{"coeffs": [1]}, "0"], ["0", "1"]]}, "generators",
                     id="coeffs-list"),
        pytest.param({"generators": [[True, "0"], ["0", "1"]]}, "generators",
                     id="bool-coordinate"),
        pytest.param({"scales": 3}, "scales", id="scales-number"),
        pytest.param({"scales": ["1/0", 2]}, "scales", id="scales-zero-denominator"),
        pytest.param({"scales": [True, 2]}, "scales", id="scales-bool"),
        pytest.param({"symbols": 5}, "symbols", id="symbols-number"),
        pytest.param({"lambdas": ["1/0"]}, "lambdas", id="lambdas-zero-denominator"),
        pytest.param({"lambdas": "2"}, "lambdas", id="lambdas-string"),
        pytest.param({"lambda": False}, "lambda", id="lambda-bool"),
        pytest.param({"epsilon": "1/0"}, "epsilon", id="epsilon-zero-denominator"),
        pytest.param({"epsilon": True}, "epsilon", id="epsilon-bool"),
        pytest.param({"n": True}, "n", id="n-bool"),
        pytest.param({"T": True}, "T", id="T-bool"),
        pytest.param({"D_range": [True, 3]}, "D_range", id="D_range-bool"),
        pytest.param({"seed": False}, "seed", id="seed-bool"),
        pytest.param({"limits": {"sample_count": True}}, "limits.sample_count",
                     id="limit-bool"),
        pytest.param({"h_prime": [[True, 0]]}, "h_prime", id="lattice-bool"),
    ])
    def test_invalid_input_is_a_json_validation_error(self, tmp_path, capsys, extra, field):
        with pytest.raises(ValidationError) as err:
            cli.parse_config(json.dumps(dict(BASE, **extra)))
        assert err.value.field == field
        path = write_config(tmp_path, extra)
        assert cli.run(["chain", "build", "-c", path]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "ValidationError"
        assert error["message"].startswith(f"{field}: ")


class TestCommands:
    def test_chain_build_payload(self, tmp_path):
        cfg = write_config(tmp_path, {"scales": ["100", "10"]})
        code, body = run_to_file(tmp_path, ["chain", "build", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert report["schema"] == "slopechain-report/1"
        assert [n["dim"] for n in report["chain"]["nodes"]] == [0, 1, 2]
        assert [s["frak_radicand"] for s in report["chain"]["steps"]] == ["100", "10"]

    def test_chain_verify_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        code, body = run_to_file(tmp_path, ["chain", "verify", "-c", cfg])
        assert code == 0
        assert json.loads(body)["certificate"]["telescoping_ok"] is True

    def test_mu(self, tmp_path):
        cfg = write_config(tmp_path)
        code, body = run_to_file(tmp_path, ["mu", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert report["mu"] == "1" and report["well_distributed"] is True

    def test_gamma_enumerate(self, tmp_path):
        cfg = write_config(tmp_path, {"lambda": "1"})
        code, body = run_to_file(tmp_path, ["gamma", "enumerate", "-c", cfg])
        assert code == 0
        assert json.loads(body)["cardinality"] == 15

    def test_gamma_count_requires_lattices(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.run(["gamma", "count", "-c", cfg])
        assert code == 1

    def test_gamma_count(self, tmp_path):
        cfg = write_config(
            tmp_path, {"h_prime": [[1, 0], [0, 1]], "h_dprime": []}
        )
        code, body = run_to_file(tmp_path, ["gamma", "count", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert report["count"] == 15 and report["n_formula"] == "6"

    def test_gamma_count_and_check_on_an_80m_tuple_box(self, tmp_path):
        # 9999 x 7999 box tuples, far over enumeration_max; the diagonal holds
        # 2 * 3999 + 1 of them, and 2 * 7999 + 1 at lambda = 2
        cfg = write_config(tmp_path, {
            "scales": ["5000", "4000"], "lambdas": ["1", "2"],
            "h_prime": [[1, 1]], "h_dprime": [],
        })
        code, body = run_to_file(tmp_path, ["gamma", "count", "-c", cfg])
        assert code == 0
        assert json.loads(body)["count"] == 7999
        code, body = run_to_file(tmp_path, ["gamma", "check", "-c", cfg])
        assert code == 0
        assert [row["count"] for row in json.loads(body)["sweep"]] == [7999, 15999]

    def test_gamma_count_limit_bounds_the_walk(self, tmp_path, capsys):
        # G mod 0 on the 9999 x 7999 box: 9999 first coordinates, then one
        # counted interval each, so 19998 steps
        cfg = write_config(tmp_path, {
            "scales": ["5000", "4000"], "h_prime": [[1, 0], [0, 1]], "h_dprime": [],
        })
        argv = ["gamma", "count", "-c", cfg, "--limit"]
        code, body = run_to_file(tmp_path, argv + ["enumeration_max=19998"])
        assert code == 0
        assert json.loads(body)["count"] == 9999 * 7999
        assert cli.run(argv + ["enumeration_max=19997"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "EnumerationTooLarge"

    def test_gamma_count_within_a_box_that_fits_the_limit(self, tmp_path, capsys):
        # G mod the x-axis on the 5 x 3 box: the walk takes 5 + 15 steps, but
        # the 15 box tuples fit enumeration_max = 15
        cfg = write_config(tmp_path, {"h_prime": [[1, 0], [0, 1]], "h_dprime": [[1, 0]]})
        argv = ["gamma", "count", "-c", cfg, "--limit"]
        code, body = run_to_file(tmp_path, argv + ["enumeration_max=15"])
        assert code == 0
        assert json.loads(body)["count"] == 3
        assert cli.run(argv + ["enumeration_max=14"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "EnumerationTooLarge"

    def test_gamma_check_fit_far_from_the_rank_is_no_violation(self, tmp_path):
        # two lambdas on small boxes: the counts 75 and 685 give a float fit
        # of about 3.19 against the exact rank 2; the fit is display-only, so
        # the exact rank, counts and ratios are reported with exit code 0
        cfg = write_config(tmp_path, {
            "generators": [[-2, -1], [1, -2], [0, 2]], "scales": [3, 2, 3],
            "h_prime": [[1, 0, 0], [0, 1, 0]], "h_dprime": [], "lambdas": ["1", "2"],
        })
        code, body = run_to_file(tmp_path, ["gamma", "check", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert report["rank"] == 2
        assert round(report["fitted_exponent_approx"], 3) == 3.191
        assert [row["count"] for row in report["sweep"]] == [75, 685]
        assert report["ratio_bounds"] == ["25/3", "685/36"]  # count / (lambda^2 * 9)

    def test_locus_rank(self, tmp_path):
        cfg = write_config(tmp_path, {"D": 2})
        code, body = run_to_file(tmp_path, ["locus", "rank", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert report["rank"] == 6 and report["injective"] is True

    def test_locus_sweep_with_csv(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, {
            "D_range": [1, 6],
            "epsilon": "1/2",
            "limits": {"sample_count": 30},
            "csv_out": str(csv_path),
        })
        code, body = run_to_file(tmp_path, ["locus", "sweep", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert [r["i_star"] for r in report["rows"]] == [2, 2, 1, 1, 0, 0]
        header = csv_path.read_text().splitlines()[0]
        assert header == "D,rank,nullity,verdict_0,verdict_1,verdict_2"

    def test_polygon_export_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"scales": ["100", "10"]})
        code, body = run_to_file(tmp_path, ["polygon", "export", "-c", cfg])
        assert code == 0
        lines = body.decode().splitlines()
        assert lines[0] == "dim,phi_approx,e_1,e_2"
        assert lines[1].startswith("0,") and lines[3].startswith("2,")

    def test_symbolic_chain_with_zero_generator_matches_rational(self, tmp_path):
        gens = {"generators": [[0, 0], [1, 0], [-1, 1]], "scales": ["15", "13", "2"]}
        rational = write_config(tmp_path, gens, name="rational.json")
        symbolic = write_config(tmp_path, dict(gens, symbols=["t1"]), name="symbolic.json")
        _, want = run_to_file(tmp_path, ["chain", "build", "-c", rational], name="a.txt")
        code, got = run_to_file(tmp_path, ["chain", "build", "-c", symbolic], name="b.txt")
        assert code == 0
        nodes = json.loads(got)["chain"]["nodes"]
        assert nodes == json.loads(want)["chain"]["nodes"]
        assert nodes[1]["dim"] == 1
        assert nodes[1]["coeff_lattice"] == [[1, 0, 0], [0, 1, 0]]

    def test_locus_rank_with_many_coordinates(self, tmp_path):
        # the monomial basis takes no recursion level per coordinate
        n = 1500
        cfg = write_config(tmp_path, {"n": n, "generators": [[0] * n], "scales": [1], "D": 1})
        code, body = run_to_file(tmp_path, ["locus", "rank", "-c", cfg])
        assert code == 0
        report = json.loads(body)
        assert (report["rows"], report["cols"], report["rank"]) == (1, n + 1, 1)

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        code, body = run_to_file(tmp_path, ["mu", "-c", cfg, "--seed", "77"])
        assert code == 0
        assert json.loads(body)["provenance"]["seed"] == 77


class TestParser:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("key", list(cli._COMMANDS))
    @pytest.mark.parametrize("options", [
        ["--config=x"],
        ["-cx"],
        ["--conf", "x"],
        ["-c", "x", "--limit", "enumeration_max=5", "--limit", "sample_count=3"],
        ["--seed", "1", "-c", "x", "--seed", "2", "--out", "o"],
    ])
    def test_command_parser_parses_as_the_full_parser(self, key, options):
        argv = [word for word in key if word] + options
        parser, _ = cli._build_parser()
        full = vars(parser.parse_args(argv))
        assert (full.pop("group"), full.pop("action", None)) == key
        # the command's own parser alone, so no group or action is set
        command, args = cli._parse_argv(argv)
        assert command == key and vars(args) == full

    @pytest.mark.parametrize(
        "override",
        [
            pytest.param(["--limit", "enumeration_max=--5"], id="limit-two-minus-signs"),
            pytest.param(["--limit", "enumeration_max=\u0663"], id="limit-non-ascii-digit"),
            pytest.param(["--seed", str(2 ** 64)], id="seed-beyond-64-bits"),
        ],
    )
    def test_override_meets_the_config_rule(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path)
        assert cli.run(["mu", "-c", cfg] + override) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "ValidationError"
        field = "seed" if override[0] == "--seed" else "limits.enumeration_max"
        assert error["message"].startswith(f"{field}: ")

    def test_random_candidates_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["chain", "build", "-c", cfg, "--limit"]
        assert run_to_file(tmp_path, argv + ["random_candidates=0"])[0] == 0
        assert cli.run(argv + ["random_candidates=-1"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "ValidationError"
        assert error["message"].startswith("limits.random_candidates: ")

    def test_limit_override_does_not_leak_into_next_run(self, tmp_path, capsys):
        # the 5 x 3 box exceeds enumeration_max = 10 only under the override
        cfg = write_config(tmp_path)
        assert cli.run(["gamma", "enumerate", "-c", cfg, "--limit", "enumeration_max=10"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["message"] == "box of 15 tuples exceeds the limit 10"
        code, out = run_to_file(tmp_path, ["gamma", "enumerate", "-c", cfg])
        assert code == 0
        assert json.loads(out)["cardinality"] == 15


class TestDisplayFloatsOfExactInputs:
    """Exact inputs whose floats are out of range: the logs of rationals are
    taken through their integer numerator and denominator, frak_approx is
    null when the radicand is past the largest float, and so is an exponent
    fitted on equal float logs."""

    HUGE = {"scales": [str(2 ** 1024), "2"]}

    @pytest.mark.parametrize("command, extra, want", [
        ("chain build", HUGE, [None, 2.0]),
        ("chain verify", HUGE, [None, 2.0]),
        ("polygon export", HUGE, [0.0, 709.782712893384, 710.4758600739439]),
        ("gamma check", {"lambdas": ["1", "1" + "0" * 400]}, 0.0),
        ("gamma check", {"lambdas": ["1", "1/1" + "0" * 400]}, 0.0),
        ("gamma check", {"lambdas": ["1", f"{10 ** 30 + 1}/{10 ** 30}"]}, None),
        # equal float logs whose float mean is off them: no noise is fitted
        ("gamma check", {"h_prime": [[1, 0], [0, 1]], "lambdas": [
            "21/10", f"{21 * 10 ** 29 + 1}/{10 ** 30}", f"{21 * 10 ** 29 + 2}/{10 ** 30}",
        ]}, None),
    ], ids=["build", "verify", "polygon", "huge_lambda", "tiny_lambda", "equal_logs",
            "equal_logs_off_mean"])
    def test_report_written(self, tmp_path, command, extra, want):
        cfg = write_config(tmp_path, {"h_prime": [], "h_dprime": [], **extra})
        code, body = run_to_file(tmp_path, [*command.split(), "-c", cfg])
        assert code in (0, 2)
        if command == "polygon export":
            rows = [line.split(",") for line in body.decode().splitlines()[1:]]
            assert [float(row[1]) for row in rows] == want
            return

        def refuse(constant):
            raise AssertionError(f"{constant} in a JSON report")

        report = json.loads(body, parse_constant=refuse)
        if command == "gamma check":
            assert report["fitted_exponent_approx"] == want
        else:
            assert [step["frak_approx"] for step in report["chain"]["steps"]] == want


class TestScalarJson:
    @staticmethod
    def model_coordinate(raw):
        model = build_model(ModelConfig(
            n=1, generators=((raw,),), scales=(2,), symbols=tuple(f"s{k}" for k in range(10))
        ))
        return model.generators[0][0]

    @pytest.mark.parametrize("raw, want", [
        ("3/4", "3/4"),
        ({"const": "1/2", "coeffs": {"t10": "3", "t2": "0"}},
         {"const": "1/2", "coeffs": {"t10": "3"}}),
        ({"coeffs": {"t10": -1, "t1": 2}}, {"const": "0", "coeffs": {"t1": "2", "t10": "-1"}}),
        ({"const": 5, "coeffs": {"t1": 0, "t10": 0}}, "5"),
        ({"const": 0}, "0"),
    ])
    def test_round_trip(self, raw, want):
        # as parsed (the config echo) and as stored in a 10-symbol model
        assert cli._scalar_json(_parse_coordinate(raw)) == want
        assert cli._scalar_json(self.model_coordinate(raw)) == want
        assert self.model_coordinate(want) == self.model_coordinate(raw)


# quotes, backslashes, control characters and non-ASCII text, beside any text
_texts = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\U0001d11ea') | st.characters(), max_size=6)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _texts
_rows = st.lists(
    st.lists(st.integers(), max_size=3)
    | st.lists(_texts, max_size=3)
    | st.lists(st.integers() | _texts, max_size=3)
    | st.lists(st.booleans(), max_size=3)
    | st.lists(st.floats(), max_size=3)
    | st.lists(st.none(), max_size=3),
    max_size=4,
)
_json_values = st.recursive(
    _scalars | _rows,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=12,
)


def _written(report):
    """The report text as `cli.run` writes it, chunk by chunk."""
    return "".join(cli._report_chunks(report))


class TestJsonText:
    """The report writer against `json.dumps(sort_keys=True, indent=2)`."""

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_texts, _json_values, max_size=5))
    @example({"points": [["1/2", "-3"], ["0", "\u00e9\"\\"]], "witnesses": [[1, -2], [0, 0]]})
    @example({"a": [[], [1]], "b": [], "c": {}, "d": [[True, 1], [1.5], [None], ["x", 2]]})
    @example({"nested": {"rows": [[1, 2], [3, 4]], "deeper": {"e": [["\x00"]]}}})
    # matrices: one row, tuple rows, an empty row, mixed, bool and float
    # cells, and a matrix nested in a list
    @example({"one": [["a", "\u00e9"]], "int": [[-1, 0, 2 ** 70]]})
    @example({"points": [("1/2", "-3"), ("0", "x")], "witnesses": [(1, -2), [0, 0]]})
    @example({"a": [[1], [], [2]], "b": [["x"], ()]})
    @example({"a": [["x", 1], ["y", 2]], "b": [[1, 2], ["x", "y"]]})
    @example({"a": [[True, False], [True]], "b": [[1, True]], "c": [[1.5, 2.0], [-0.0]]})
    @example({"a": [[[1, 2], [3, 4]], [["x"]], [[]]]})
    def test_equals_json_dumps(self, value):
        assert _written(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_non_string_keys_fall_back(self):
        value = {"a": {1: [[1, 2]], 0: "x"}}
        assert _written(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(
        pool=st.lists(st.integers(), min_size=1, max_size=8)
        | st.lists(_texts, min_size=1, max_size=8),
        width=st.integers(1, 300),
        block=st.integers(1, 64),
        offset=st.sampled_from((-1, 0, 1)),
        seed=st.integers(0, 2 ** 32),
    )
    @example(pool=['"\u00e9\x01', "x"], width=2, block=4, offset=-1, seed=0)  # one row
    @example(pool=[-1, 0, 2 ** 70], width=300, block=7, offset=1, seed=1)  # block < width
    def test_columns_equal_json_dumps_of_rows(self, pool, width, block, offset, seed):
        # row counts block - 1, block and block + 1 (at least 1), with
        # block = max(1, _BLOCK_CELLS // width) rows
        count = max(1, max(1, block // width) + offset)
        rng = random.Random(seed)
        columns = tuple([rng.choice(pool) for _ in range(count)] for _ in range(width))
        cells = functools.partial(map, cli._escape if type(pool[0]) is str else repr)
        matrix = cli._Matrix(functools.partial(cli._column_rows, columns, cells), width, count)
        rows = [list(row) for row in zip(*columns)]
        with mock.patch.object(cli, "_BLOCK_CELLS", block):
            text = _written({"m": matrix, "a": [1], "z": "x"})
        assert text == json.dumps({"m": rows, "a": [1], "z": "x"}, sort_keys=True, indent=2)

    @pytest.mark.parametrize("columns, count, want", [
        ((), 1, [[]]),
        ((), 3, [[], [], []]),
        (([], []), 0, []),
    ])
    def test_empty_columns_and_rows(self, columns, count, want):
        rows = functools.partial(cli._column_rows, columns, functools.partial(map, repr))
        matrix = cli._Matrix(rows, len(columns), count)
        assert _written({"m": matrix}) == json.dumps({"m": want}, sort_keys=True, indent=2)

    @pytest.mark.parametrize("width", [1, 3, 4, 10, 25])
    def test_no_chunk_exceeds_a_block(self, monkeypatch, width):
        # every cell is 7, so a chunk's cells are its 7s
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 10)
        count = 23
        columns = tuple([7] * count for _ in range(width))
        rows = functools.partial(cli._column_rows, columns, functools.partial(map, repr))
        matrix = cli._Matrix(rows, width, count)
        chunks = list(cli._matrix_chunks(matrix, "\n  "))
        block = max(1, 10 // width) * width
        assert max(chunk.count("7") for chunk in chunks) == min(block, count * width)
        assert sum(chunk.count("7") for chunk in chunks) == count * width
        want = json.dumps([[7] * width] * count, indent=2).replace("\n", "\n  ")
        assert "".join(chunks) == want

    @pytest.mark.parametrize("config", ["plane_basic", "fractional_unsorted"])
    def test_enumerate_report_is_written_in_blocks(self, tmp_path, monkeypatch, config):
        # 6 cells a block: no chunk of the points or the witnesses holds more
        # than 6 cells, and the bytes are the golden's
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 6)
        cells_per_chunk = []
        real = cli._matrix_chunks

        def recorded(matrix, pad):
            for chunk in real(matrix, pad):
                cells_per_chunk.append(len(re.findall(r'"[^"]*"|-?\d+', chunk)))
                yield chunk

        monkeypatch.setattr(cli, "_matrix_chunks", recorded)
        golden = Path(__file__).resolve().parent / "golden"
        out = tmp_path / "report"
        code = cli.run(["gamma", "enumerate", "-c", str(golden / f"{config}.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (golden / f"{config}.gamma_enumerate.out").read_bytes()
        report = json.loads(out.read_text())
        cells = sum(len(row) for key in ("points", "witnesses") for row in report[key])
        assert sum(cells_per_chunk) == cells > 6
        assert max(cells_per_chunk) <= 6

    def test_rational_points_stay_fractions(self):
        # integer generators clear to denominator 1, the point_of shortcut
        model = build_model(ModelConfig(
            n=2, generators=((1, 0), (2, -1), (0, 3)), scales=(3, 2, 2)
        ))
        points = enumerate_gamma(model).points
        assert points and all(type(c) is Fraction for p in points for c in p)


class TestDeterminism:
    COMMANDS = [
        ["chain", "build"],
        ["chain", "verify"],
        ["mu"],
        ["gamma", "enumerate"],
        ["gamma", "check"],
        ["locus", "rank"],
        ["locus", "probe"],
        ["locus", "sweep"],
        ["polygon", "export"],
    ]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "h_prime": [[1, 0], [0, 1]],
            "h_dprime": [],
            "D_range": [2, 4],
            "lambdas": ["1", "2"],
            "limits": {"sample_count": 20},
        })
        for argv in self.COMMANDS:
            _, first = run_to_file(tmp_path, argv + ["-c", cfg], name="a.txt")
            _, second = run_to_file(tmp_path, argv + ["-c", cfg], name="b.txt")
            assert first == second, argv


class TestExitCodes:
    def test_certificate_violation_maps_to_two(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise CertificateViolation("chi_positive", "synthetic", step=0,
                                       witness=((1, 0),))
        monkeypatch.setattr(cli, "verify_chain", boom)
        cfg = write_config(tmp_path)
        code = cli.run(["chain", "verify", "-c", cfg])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "chi_positive"

    @staticmethod
    def _bogus_kernel_read_off(monkeypatch):
        # the kernel read-off of the jet lab returns a non-kernel vector
        def bogus_kernel(rows, ncols):
            return [[1] * ncols]
        monkeypatch.setattr(
            locus, "linalg", SimpleNamespace(**dict(vars(linalg), _integer_kernel=bogus_kernel))
        )

    def test_internal_self_check_maps_to_one(self, tmp_path, monkeypatch, capsys):
        # dependent generators: the probe eliminates, and checks its kernel
        self._bogus_kernel_read_off(monkeypatch)
        cfg = write_config(tmp_path, {
            "generators": [["1", "0"], ["0", "1"], ["1", "1"]], "scales": ["3", "2", "2"],
        })
        code = cli.run(["locus", "probe", "-c", cfg])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InternalInvariantError"
        assert "jet constraint" in error["message"]

    def test_independent_probe_reads_no_kernel(self, tmp_path, monkeypatch):
        # independent generators: the probe decides in closed form, so the
        # broken read-off is never reached
        self._bogus_kernel_read_off(monkeypatch)
        cfg = write_config(tmp_path, {"epsilon": "1/2"})
        assert cli.run(["locus", "probe", "-c", cfg]) == 0

    def test_sweep_over_matrix_max_fails_at_first_oversized_degree(
            self, tmp_path, monkeypatch, capsys):
        # 15 box points, T = 1: D = 8 has 45 * 15 = 675 entries, D = 9 has
        # 55 * 15 = 825 > 700; the sweep builds one matrix at D = 12, so every
        # size must be checked before it is built
        def no_build(*args, **kwargs):
            raise AssertionError("jet matrix built before the size check")
        monkeypatch.setattr(locus, "jet_matrix", no_build)
        cfg = write_config(tmp_path, {
            "D_range": [1, 12], "epsilon": "1/2", "limits": {"matrix_max": 700},
        })
        code = cli.run(["locus", "sweep", "-c", cfg])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "MatrixTooLarge"
        assert error["message"] == "jet matrix with 825 entries exceeds 700"

    @pytest.mark.parametrize("action, extra", [
        ("probe", {"D": 12}),
        ("sweep", {"D_range": [1, 12]}),
    ])
    def test_oversized_jet_is_refused_before_sampling(
            self, tmp_path, monkeypatch, capsys, action, extra):
        # 15 box points, T = 1, D = 12: 91 * 15 = 1365 > 700 entries
        def no_samples(*args, **kwargs):
            raise AssertionError("samples drawn before the jet size check")
        monkeypatch.setattr(locus, "_ProbeSamples", no_samples)
        cfg = write_config(tmp_path, dict(extra, limits={"matrix_max": 700}))
        code = cli.run(["locus", action, "-c", cfg])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "MatrixTooLarge"

    def test_huge_degree_range_is_refused_without_listing_it(self, tmp_path, capsys):
        # 3 box points, T = 1: D has 3 (D + 1) entries, so D = 333,333 is
        # the first of the 10^18 degrees over matrix_max = 10^6
        cfg = write_config(tmp_path, {
            "n": 1, "generators": [["1"]], "scales": ["2"], "D_range": [1, 10 ** 18],
        })
        code = cli.run(["locus", "sweep", "-c", cfg])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "MatrixTooLarge"
        assert error["message"] == "jet matrix with 1000002 entries exceeds 1000000"

    @pytest.mark.parametrize("action, extra", [
        ("rank", {}),
        ("probe", {}),
        ("sweep", {"D_range": [1, 40]}),
    ])
    def test_oversized_jet_is_refused_before_any_box_point(
            self, tmp_path, monkeypatch, capsys, action, extra):
        # 99 * 79 = 7821 box points, T = 3: even D = 1 has 4 * 7821 * 10
        # entries, far over matrix_max = 1000, which len(omega) tells
        def no_points(omega):
            raise AssertionError("box points built before the jet size check")
        monkeypatch.setattr(GammaSet, "points", property(no_points))
        cfg = write_config(tmp_path, dict(
            extra, n=3, generators=[["1", "0", "0"], ["0", "1", "0"]], scales=["50", "40"],
            T=3, D=40, limits={"matrix_max": 1000},
        ))
        code = cli.run(["locus", action, "-c", cfg])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "MatrixTooLarge"

    @pytest.mark.parametrize("action", ["probe", "sweep"])
    def test_sample_count_is_refused_before_any_work(
            self, tmp_path, monkeypatch, capsys, action):
        # plane_basic has 3 chain steps: 10^12 samples at each exceed
        # enumeration_max = 10^7 before a jet matrix or a sample is built
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the sample count check")
        golden = Path(__file__).resolve().parent / "golden" / "plane_basic.json"
        argv = ["locus", action, "-c", str(golden), "--limit"]
        with monkeypatch.context() as patched:
            patched.setattr(locus, "jet_matrix", no_work)
            patched.setattr(locus, "_ProbeSamples", no_work)
            start = perf_counter()
            code = cli.run(argv + ["sample_count=1000000000000"])
            assert perf_counter() - start < 1
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "EnumerationTooLarge"
        assert error["message"] == "3000000000000 probe samples exceed the limit 10000000"
        # 33 samples at each step fit enumeration_max = 100 (and the 77
        # box tuples of Gamma(2S)); 34 do not
        limit = ["--limit", "enumeration_max=100"]
        code, _ = run_to_file(tmp_path, argv + ["sample_count=33"] + limit)
        assert code == 0
        assert cli.run(argv + ["sample_count=34"] + limit) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["message"] == "102 probe samples exceed the limit 100"

    def test_candidate_box_over_enumeration_max_maps_to_one(self, tmp_path, capsys):
        # 7^3 = 343 box vectors of height 3 exceed enumeration_max = 100
        cfg = write_config(tmp_path, {
            "generators": [["1", "0"], ["0", "1"], ["1", "1"]],
            "scales": ["5", "3", "2"],
            "limits": {"candidate_height": 3, "enumeration_max": 100},
        })
        code = cli.run(["chain", "verify", "-c", cfg])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "EnumerationTooLarge"
        assert "343" in error["message"]

    def test_random_candidates_are_refused_before_any_draw(self, tmp_path, capsys):
        # 10^8 random candidates exceed enumeration_max = 10^7; the draws
        # would run for minutes
        golden = Path(__file__).resolve().parent / "golden" / "plane_basic.json"
        argv = ["chain", "verify", "-c", str(golden), "--limit"]
        start = perf_counter()
        code = cli.run(argv + ["random_candidates=100000000"])
        assert perf_counter() - start < 1
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "EnumerationTooLarge"
        assert error["message"] == "100000000 random candidates exceed the limit 10000000"
        # the limit itself is allowed
        limit = ["--limit", "enumeration_max=30"]
        code, _ = run_to_file(tmp_path, argv + ["random_candidates=30"] + limit)
        assert code == 0
        assert cli.run(argv + ["random_candidates=31"] + limit) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["message"] == "31 random candidates exceed the limit 30"

    def test_validation_error_maps_to_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE, epsilon="2")))
        code = cli.run(["chain", "build", "-c", str(path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "ValidationError"


def _without(key):
    return {k: v for k, v in BASE.items() if k != key}


class TestRefusals:
    """Each refused config or command exits 1 with a JSON error on stdout
    that names the field, and writes nothing to stderr."""

    @pytest.mark.parametrize("config, command, code, head", [
        pytest.param(dict(BASE, limits={"bogus": 1}), ["chain", "build"], "ValidationError",
                     "limits.bogus: unknown limit", id="limit-unknown"),
        pytest.param(dict(BASE, limits=[1]), ["chain", "build"], "ValidationError",
                     "limits: must be an object", id="limits-list"),
        pytest.param([BASE], ["chain", "build"], "ParseError",
                     "config must be a JSON object", id="config-list"),
        pytest.param(_without("n"), ["chain", "build"], "ValidationError",
                     "n: missing required key", id="n-missing"),
        pytest.param(_without("generators"), ["chain", "build"], "ValidationError",
                     "generators: missing required key", id="generators-missing"),
        pytest.param(_without("scales"), ["chain", "build"], "ValidationError",
                     "scales: missing required key", id="scales-missing"),
        pytest.param(dict(BASE, generators=["1", "0"]), ["chain", "build"], "ValidationError",
                     "generators: must be a list of coordinate lists", id="generators-flat"),
        pytest.param(dict(BASE, generators="1"), ["chain", "build"], "ValidationError",
                     "generators: must be a list of coordinate lists", id="generators-string"),
        pytest.param(dict(BASE, D=0), ["chain", "build"], "ValidationError",
                     "D: must be an integer >= 1", id="D-zero"),
        pytest.param(dict(BASE, **{"lambda": "0"}), ["chain", "build"], "ValidationError",
                     "lambda: must be positive", id="lambda-zero"),
        pytest.param(dict(BASE, **{"lambda": "-1/2"}), ["chain", "build"], "ValidationError",
                     "lambda: must be positive", id="lambda-negative"),
        pytest.param(dict(BASE, lambdas=[]), ["chain", "build"], "ValidationError",
                     "lambdas: must be a non-empty list", id="lambdas-empty"),
        pytest.param(dict(BASE, lambdas=["1", "0"]), ["chain", "build"], "ValidationError",
                     "lambdas: must be a non-empty list", id="lambdas-zero"),
        pytest.param(dict(BASE, out=5), ["chain", "build"], "ValidationError",
                     "out: must be a path string", id="out-number"),
        pytest.param(dict(BASE, h_prime=[[1, 0]]), ["gamma", "count"], "ValidationError",
                     "h_dprime: required for this command", id="h_dprime-missing"),
        pytest.param(_without("D"), ["locus", "rank"], "ValidationError",
                     "D: required for this command", id="D-missing"),
    ])
    def test_refused_with_a_json_error(self, tmp_path, capsys, config, command, code, head):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.run(command + ["-c", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == code
        assert error["message"].startswith(head)


class TestUsageErrors:
    """A command line that names no command, or gives a command options it
    does not take, is a JSON UsageError on stdout with exit code 1 and
    nothing on stderr; -h prints help and exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "slopechain: argument group: invalid choice: 'bogus'"),
        ([], "slopechain: the following arguments are required: group"),
        (["chain"], "slopechain chain: the following arguments are required: action"),
        (["chain", "build"],
         "slopechain chain build: the following arguments are required: -c/--config"),
        (["mu", "-c", "cfg.json", "--bogus"], "slopechain mu: unrecognized arguments: --bogus"),
        (["gamma", "count", "-c", "cfg.json", "--limt", "x"],
         "slopechain gamma count: unrecognized arguments: --limt x"),
    ])
    def test_usage_error(self, capsys, argv, message):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == "UsageError"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: slopechain [-h]"),
        (["chain", "-h"], "usage: slopechain chain [-h]"),
        (["locus", "sweep", "--help"], "usage: slopechain locus sweep [-h]"),
    ])
    def test_help_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage) and captured.err == ""


class TestInputOutputErrors:
    """File errors are JSON errors on stdout, coded by the exception class,
    with exit code 1 and nothing on stderr."""

    def _error(self, capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        return json.loads(captured.out)["error"]

    def test_missing_config(self, tmp_path, capsys):
        error = self._error(capsys, ["chain", "build", "-c", str(tmp_path / "none.json")])
        assert error["code"] == "FileNotFoundError"

    def test_config_is_a_directory(self, tmp_path, capsys):
        error = self._error(capsys, ["chain", "build", "-c", str(tmp_path)])
        assert error["code"] == "IsADirectoryError"

    @pytest.mark.parametrize("command, key", [
        (["chain", "build"], "out"),
        (["locus", "sweep"], "csv_out"),
    ])
    def test_unwritable_output(self, tmp_path, capsys, command, key):
        target = str(tmp_path / "missing" / "report")
        if key == "out":
            argv = command + ["-c", write_config(tmp_path), "--out", target]
        else:
            cfg = write_config(tmp_path, {"D_range": [1, 2], "csv_out": target})
            argv = command + ["-c", cfg]
        error = self._error(capsys, argv)
        assert error["code"] == "FileNotFoundError"

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(dict(BASE, symbols=["é"]), ensure_ascii=False).encode("latin-1"))
        error = self._error(capsys, ["chain", "build", "-c", str(path)])
        assert error["code"] == "ParseError"
        assert "UTF-8" in error["message"]


class TestConsoleEntryPoint:
    """`python -m slopechain.cli`, which runs `cli.main` on sys.argv."""

    def _run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "slopechain.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_writes_the_golden_report(self, tmp_path):
        out = tmp_path / "report"
        golden = ROOT / "tests" / "golden"
        proc = self._run("chain", "build", "-c", str(golden / "plane_basic.json"),
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""
        assert out.read_bytes() == (golden / "plane_basic.chain_build.out").read_bytes()

    def test_usage_error_is_a_json_error(self):
        proc = self._run("bogus")
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["code"] == "UsageError"

    def test_help_exits_zero(self):
        proc = self._run("-h")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: slopechain")

    def test_missing_config_is_a_json_error(self, tmp_path):
        proc = self._run("chain", "build", "-c", str(tmp_path / "none.json"))
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["error"]["code"] == "FileNotFoundError"
