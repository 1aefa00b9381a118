"""Command-line front end: JSON config in, deterministic reports out.

Reports are JSON with sorted keys (byte-identical across reruns of the same
config and seed).  Exact quantities appear as "p/q" strings or integer
exponent vectors; any floating value is display-only, lives under a key
ending in "_approx", and sits next to the exact field it approximates.

Exit codes: 0 success, 2 exact certificate violation, 1 any other error,
a command line that names no command or gives it options it does not take
(`UsageError`) among them; `-h` prints help and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, NamedTuple

from . import __version__
from .chain import (
    VerifyOptions,
    build_chain,
    mu_exponents,
    n_formula,
    polygon_rows,
    verify_chain,
)
from .errors import (
    CertificateViolation,
    EnumerationTooLarge,
    ParseError,
    SlopechainError,
    UsageError,
    ValidationError,
)
from .gamma import _integer_columns, card_mod, counting_check, enumerate_gamma
from .locus import _box_rank, locus_probe, threshold_sweep
from .model import GroupModel, ModelConfig, _parse_coordinate, build_model, closure
from .polys import Poly, as_fraction

SCHEMA = "slopechain-report/1"

_TOP_KEYS = {
    "n", "symbols", "generators", "scales",
    "T", "D", "D_range", "epsilon", "seed", "limits",
    "lambda", "lambdas", "h_prime", "h_dprime",
    "out", "csv_out",
}


@dataclass
class Limits:
    enumeration_max: int = 10 ** 7
    matrix_max: int = 10 ** 6
    candidate_height: int = 2
    random_candidates: int = 0
    sample_count: int = 100


_LIMIT_KEYS = {f.name for f in fields(Limits)}


@dataclass
class RunConfig:
    model: ModelConfig
    T: int = 1
    D: int | None = None
    D_range: tuple[int, int] | None = None
    epsilon: Fraction = Fraction(1, 2)
    seed: int = 0
    limits: Limits = field(default_factory=Limits)
    lam: Fraction = Fraction(1)
    lambdas: tuple = (Fraction(1), Fraction(2), Fraction(4))
    h_prime: tuple | None = None
    h_dprime: tuple | None = None
    out: str | None = None
    csv_out: str | None = None
    echo: dict = field(default_factory=dict)


def _fail(name, message):
    raise ValidationError(name, message)


def _exact(name, value):
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        _fail(name, str(exc))


def _exact_list(name, value):
    if not isinstance(value, list):
        _fail(name, "must be a list of rationals")
    return [_exact(name, v) for v in value]


def _is_int(value):
    """A JSON integer; true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _seed(value):
    if not _is_int(value) or not -(2 ** 63) <= value < 2 ** 64:
        _fail("seed", "must be a 64-bit integer")
    return value


def _limit(key, value):
    if key not in _LIMIT_KEYS:
        _fail(f"limits.{key}", "unknown limit")
    if key == "random_candidates":
        # its default, 0, draws no random candidates
        if not _is_int(value) or value < 0:
            _fail(f"limits.{key}", "must be a non-negative integer")
    elif not _is_int(value) or value <= 0:
        _fail(f"limits.{key}", "must be a positive integer")
    return value


def _override(name, text):
    """A command-line override read as the JSON value it would be in the
    config, so that it meets the config's rule for its key."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        _fail(name, f"bad override {text!r}")


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail(key, "unknown configuration key")

    for required in ("n", "generators", "scales"):
        if required not in raw:
            _fail(required, "missing required key")
    if not _is_int(raw["n"]):
        _fail("n", "must be an integer")
    symbols = raw.get("symbols", [])
    if not isinstance(symbols, list) or not all(isinstance(t, str) for t in symbols):
        _fail("symbols", "must be a list of names")
    generators = raw["generators"]
    if not isinstance(generators, list) or not all(isinstance(g, list) for g in generators):
        _fail("generators", "must be a list of coordinate lists")
    model_cfg = ModelConfig(
        n=raw["n"],
        generators=tuple(tuple(_parse_coordinate(c) for c in g) for g in generators),
        scales=tuple(_exact_list("scales", raw["scales"])),
        symbols=tuple(symbols),
    )

    cfg = RunConfig(model=model_cfg)
    if "T" in raw:
        if not _is_int(raw["T"]) or raw["T"] < 1:
            _fail("T", "must be an integer >= 1")
        cfg.T = raw["T"]
    if "D" in raw:
        if not _is_int(raw["D"]) or raw["D"] < 1:
            _fail("D", "must be an integer >= 1")
        cfg.D = raw["D"]
    if "D_range" in raw:
        rng = raw["D_range"]
        if (
            not isinstance(rng, list) or len(rng) != 2
            or not all(_is_int(x) for x in rng) or rng[0] < 1 or rng[1] < rng[0]
        ):
            _fail("D_range", "must be [lo, hi] with 1 <= lo <= hi")
        cfg.D_range = (rng[0], rng[1])
    if "epsilon" in raw:
        eps = _exact("epsilon", raw["epsilon"])
        if not 0 < eps < 1:
            _fail("epsilon", f"must lie strictly between 0 and 1, got {eps}")
        cfg.epsilon = eps
    if "seed" in raw:
        cfg.seed = _seed(raw["seed"])
    if "limits" in raw:
        if not isinstance(raw["limits"], dict):
            _fail("limits", "must be an object")
        for key, value in raw["limits"].items():
            setattr(cfg.limits, key, _limit(key, value))
    if "lambda" in raw:
        lam = _exact("lambda", raw["lambda"])
        if lam <= 0:
            _fail("lambda", "must be positive")
        cfg.lam = lam
    if "lambdas" in raw:
        vals = _exact_list("lambdas", raw["lambdas"])
        if not vals or any(v <= 0 for v in vals):
            _fail("lambdas", "must be a non-empty list of positive rationals")
        cfg.lambdas = tuple(vals)
    for key in ("h_prime", "h_dprime"):
        if key in raw:
            rows = raw[key]
            if not isinstance(rows, list) or not all(
                isinstance(r, list) and all(_is_int(x) for x in r) for r in rows
            ):
                _fail(key, "must be a list of integer vectors")
            setattr(cfg, key, tuple(tuple(r) for r in rows))
    for key in ("out", "csv_out"):
        if key in raw:
            if raw[key] is not None and not isinstance(raw[key], str):
                _fail(key, "must be a path string")
            setattr(cfg, key, raw[key])

    cfg.echo = _echo_config(raw, cfg)
    return cfg


def _scalar_json(value):
    """A rational as "p/q"; an affine-linear Poly with a symbol term as
    {"const": "p/q", "coeffs": {"t<k>": "p/q"}}."""
    if isinstance(value, Fraction):
        return str(value)
    if not isinstance(value, Poly):
        return str(as_fraction(value))
    const = Fraction(0)
    coeffs = {}
    for mon, c in value.terms.items():
        if any(mon):
            coeffs[mon.index(1) + 1] = c
        else:
            const = c
    if not coeffs:
        return str(const)
    return {"const": str(const), "coeffs": {f"t{i}": str(c) for i, c in sorted(coeffs.items())}}


def _echo_config(raw, cfg):
    """The config as a report echoes it: `raw`, with every rational and
    coordinate written canonically from the value `parse_config` parsed."""
    echo = dict(raw)
    echo["generators"] = [[_scalar_json(c) for c in gen] for gen in cfg.model.generators]
    echo["scales"] = list(map(str, cfg.model.scales))
    if "lambdas" in raw:
        echo["lambdas"] = list(map(str, cfg.lambdas))
    for key, value in (("epsilon", cfg.epsilon), ("lambda", cfg.lam)):
        if key in raw:
            echo[key] = str(value)
    return echo


def _point_json(point):
    return [_scalar_json(c) for c in point]


_escape = json.encoder.encode_basestring_ascii
_STR, _INT = {str}, {int}


def _json_text(value, pad="\n"):
    """Exactly `json.dumps(value, sort_keys=True, indent=2)`, for a value
    whose lines start with `pad`.

    With an indent `json` writes through its Python encoder, one generator
    step per element, which is most of the cost of a large report.  Here a
    list of only str or only int, such as one row of a small matrix, is
    written with one `str.join` over a C map (strings go through the escaper
    `json` itself uses); dicts with string keys, other lists and scalars are
    written directly, so a small report is not slower either.  Anything else
    (empty or non-str-keyed containers, tuples, NaN, subclasses) is written
    by `json.dumps` and re-indented: JSON text holds no raw newline outside
    its layout.  Large matrices are not written here but by `_matrix_chunks`.
    """
    kind = type(value)
    if kind is list and value:
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == _STR:
            cells = map(_escape, value)
        elif kinds == _INT:
            cells = map(repr, value)
        else:
            cells = [_json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(cells)}{pad}]"
    if kind is str:
        return _escape(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict and value and all(type(k) is str for k in value):
        inner = pad + "  "
        items = (f"{_escape(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


class _Matrix(NamedTuple):
    """A matrix of `count` rows and `width` columns, written as the JSON
    list of its rows: `rows(lo, hi, sep)` gives the text of rows lo..hi-1,
    the cells of each joined by `sep`, so that no more than one block of
    rows is formatted, or built, at once."""

    rows: Callable
    width: int
    count: int


def _column_rows(columns, cells, lo, hi, sep):
    """`_Matrix.rows` of the matrix with these `columns`: the slice lo..hi
    of each column formatted by one call of `cells`, and the cells of each
    row, zipped from the slices, joined once."""
    return map(sep.join, zip(*(cells(col[lo:hi]) for col in columns)))


# cells of a `_Matrix` formatted and joined at once: a report is written
# in blocks of max(1, _BLOCK_CELLS // width) rows
_BLOCK_CELLS = 1 << 16


def _report_chunks(report):
    """`_json_text(report)` of a report dict with str keys, in chunks: one
    string per top-level key, except for a `_Matrix` value, which
    `_matrix_chunks` writes in blocks, so the whole text never exists."""
    if not report:
        yield "{}"
        return
    sep, pad = "{", "\n  "
    for key, value in sorted(report.items()):
        if type(value) is _Matrix:
            yield f"{sep}{pad}{_escape(key)}: "
            yield from _matrix_chunks(value, pad)
        else:
            yield f"{sep}{pad}{_escape(key)}: {_json_text(value, pad)}"
        sep = ","
    yield "\n}"


def _matrix_chunks(matrix, pad):
    """`_json_text` of the rows of a `_Matrix`, whose lines start with
    `pad`, one block of rows per chunk: the rows of each block are asked of
    `matrix.rows` and joined once."""
    rows, width, count = matrix
    inner = pad + "  "
    if not count:
        yield "[]"
    elif not width:
        yield f"[{inner}{(',' + inner).join(repeat('[]', count))}{pad}]"
    else:
        cell = inner + "  "
        sep, next_row = "," + cell, f"{inner}],{inner}[{cell}"
        block = max(1, _BLOCK_CELLS // width)
        head = f"[{inner}[{cell}"
        for lo in range(0, count, block):
            yield head
            yield next_row.join(rows(lo, min(lo + block, count), sep))
            head = next_row
        yield f"{inner}]{pad}]"


# ---------------------------------------------------------------------------
# command payloads


def _chain_payload(model: GroupModel, chain):
    nodes = []
    for node in chain.nodes:
        nodes.append({
            "dim": node.dim,
            "phi_exponents": list(node.phi.exponents),
            "phi_approx": node.phi.approx(model.scales),
            "coeff_lattice": [list(r) for r in node.subgroup.coeff.rows],
        })
    steps = []
    for step in chain.steps:
        steps.append({
            "frak_radicand": str(step.frak_s.radicand),
            "frak_root": step.frak_s.root,
            "frak_approx": step.frak_s.approx(),
            "slope_exponents": list(step.slope.numerator.exponents),
            "slope_denominator": step.slope.denominator,
            "slope_approx": step.slope.approx(model.scales),
        })
    return {"r": chain.r, "nodes": nodes, "steps": steps}


def _cmd_chain_build(cfg, model):
    return {"chain": _chain_payload(model, build_chain(model))}


def _cmd_chain_verify(cfg, model):
    height, limit = cfg.limits.candidate_height, cfg.limits.enumeration_max
    box = (2 * height + 1) ** model.l
    if box > limit:
        raise EnumerationTooLarge(
            f"{box} candidate vectors of height {height} exceed the limit {limit}"
        )
    if cfg.limits.random_candidates > limit:
        raise EnumerationTooLarge(
            f"{cfg.limits.random_candidates} random candidates exceed the limit {limit}"
        )
    chain = build_chain(model)
    options = VerifyOptions(
        height=height,
        random_count=cfg.limits.random_candidates,
        seed=cfg.seed,
    )
    cert = verify_chain(model, chain, options)
    return {
        "chain": _chain_payload(model, chain),
        "certificate": {
            "candidates_checked": cert.candidates_checked,
            "equality_witnesses": [
                {"step": step, "lattice": [list(r) for r in lattice]}
                for step, lattice in cert.equality_witnesses
            ],
            "scaling_alphas": list(cert.scaling_alphas),
            "psi_injective": cert.psi_injective,
            "telescoping_ok": cert.telescoping_ok,
            "slopes_strictly_decreasing": cert.slopes_strictly_decreasing,
        },
    }


def _cmd_mu(cfg, model):
    report = mu_exponents(model)
    return {
        "mu": str(report.mu),
        "mu_star": str(report.mu_star),
        "mu_list": [str(x) for x in report.mu_list],
        "well_distributed": report.well_distributed,
        "equal_scale_chain_dims": list(report.chain.dims()),
    }


def _column_text(nums, den):
    """The JSON text of str(Fraction(v, den)) of each integer v, for
    den > 1: "p/q" in lowest terms, or "p" when den divides v, by one gcd
    and no Fraction."""
    return [
        f'"{v // den}"' if g == den else f'"{v // g}/{den // g}"'
        for v, g in zip(nums, map(math.gcd, nums, repeat(den)))
    ]


def _point_rows(model, witness_columns, lo, hi, sep):
    """`_Matrix.rows` of the points over Q of a box set: rows lo..hi-1 from
    the slices lo..hi of its `witness_columns`, as integer columns over the
    model's denominator D (`gamma._integer_columns`).  When D = 1 each row
    is written by one call of a row template of quoted cells; otherwise each
    column by `_column_text`, and the cells of each row joined."""
    den, columns = _integer_columns(model, [w[lo:hi] for w in witness_columns], hi - lo)
    if den == 1:
        return map(sep.join(['"{}"'] * len(columns)).format, *columns)
    return map(sep.join, zip(*(_column_text(nums, den) for nums in columns)))


def _cmd_gamma_enumerate(cfg, model):
    """The box set Gamma(lambda S): its points and one witness tuple per
    point.  Both matrices are written from the witness columns a block at a
    time: over Q the points of a block are built from the slices of the
    witness columns inside the writer (`_point_rows`), so they are never
    held for the whole set, with no Fraction per coordinate; over Q[t] they
    are written from the points themselves."""
    omega = enumerate_gamma(model, cfg.lam, cfg.limits.enumeration_max)
    count = len(omega)
    witnesses = omega.witness_columns
    if model.m:
        points = [_point_json(p) for p in omega.points]
    else:
        points = _Matrix(functools.partial(_point_rows, model, witnesses), model.n, count)
    cells = functools.partial(map, repr)
    return {
        "lambda": str(cfg.lam),
        "cardinality": count,
        "points": points,
        "witnesses": _Matrix(
            functools.partial(_column_rows, witnesses, cells), len(witnesses), count
        ),
    }


def _nested_pair(cfg, model):
    if cfg.h_prime is None:
        _fail("h_prime", "required for this command")
    if cfg.h_dprime is None:
        _fail("h_dprime", "required for this command")
    return closure(model, cfg.h_prime), closure(model, cfg.h_dprime)


def _cmd_gamma_count(cfg, model):
    hp, hdp = _nested_pair(cfg, model)
    count = card_mod(model, cfg.lam, hp, hdp, cfg.limits.enumeration_max)
    predicted = n_formula(model, hp, hdp)
    return {
        "lambda": str(cfg.lam),
        "count": count,
        "n_formula": str(predicted),
        "ratio": str(Fraction(count) / predicted) if predicted else None,
        "h_prime_dim": hp.dim,
        "h_dprime_dim": hdp.dim,
    }


def _cmd_gamma_check(cfg, model):
    hp, hdp = _nested_pair(cfg, model)
    report = counting_check(
        model, hp, hdp, cfg.lambdas, cfg.limits.enumeration_max
    )
    return {
        "raw_count": report.raw_count,
        "n_formula": str(report.n_formula_value),
        "ratio": str(report.ratio),
        "rank": report.rank,
        "fitted_exponent_approx": report.fitted_exponent,
        "ratio_bounds": [str(report.ratio_bounds[0]), str(report.ratio_bounds[1])],
        "sweep": [
            {"lambda": str(lam), "count": count, "ratio": str(ratio)}
            for lam, count, ratio in report.sweep
        ],
    }


def _require_D(cfg):
    if cfg.D is None:
        _fail("D", "required for this command")
    return cfg.D


def _cmd_locus_rank(cfg, model):
    omega = enumerate_gamma(model, Fraction(1), cfg.limits.enumeration_max)
    result = _box_rank(model, omega, cfg.T, _require_D(cfg), cfg.limits.matrix_max)
    return {
        "T": cfg.T,
        "D": cfg.D,
        "rank": result.rank,
        "injective": result.injective,
        "surjective": result.surjective,
        "rows": result.rows,
        "cols": result.cols,
    }


def _cmd_locus_probe(cfg, model):
    chain = build_chain(model)
    entries = locus_probe(
        model, chain, cfg.T, _require_D(cfg), cfg.epsilon,
        samples=cfg.limits.sample_count, seed=cfg.seed,
        limit=cfg.limits.matrix_max, enum_limit=cfg.limits.enumeration_max,
    )
    return {
        "T": cfg.T,
        "D": cfg.D,
        "epsilon": str(cfg.epsilon),
        "entries": [
            {
                "step": e.step,
                "subgroup_dim": e.subgroup_dim,
                "lower": e.lower,
                "upper": e.upper,
                "lower_witness": _point_json(e.lower_witness) if e.lower_witness else None,
                "upper_witness": _point_json(e.upper_witness) if e.upper_witness else None,
                "outside_samples": e.upper_sample_count,
            }
            for e in entries
        ],
    }


def _verdict_str(pair):
    lo, up = pair
    return ("T" if lo else "F") + ("-" if up is None else ("T" if up else "F"))


def _cmd_locus_sweep(cfg, model):
    if cfg.D_range is None:
        _fail("D_range", "required for locus sweep")
    chain = build_chain(model)
    report = threshold_sweep(
        model, chain, cfg.T, range(cfg.D_range[0], cfg.D_range[1] + 1),
        cfg.epsilon, samples=cfg.limits.sample_count, seed=cfg.seed,
        limit=cfg.limits.matrix_max, enum_limit=cfg.limits.enumeration_max,
    )
    payload = {
        "T": cfg.T,
        "D_range": list(cfg.D_range),
        "epsilon": str(cfg.epsilon),
        "rows": [
            {
                "D": row.degree,
                "rank": row.rank,
                "nullity": row.nullity,
                "verdicts": [_verdict_str(v) for v in row.verdicts],
                "i_star": row.i_star,
            }
            for row in report.rows
        ],
        "transitions": [{"D": d, "i_star": i} for d, i in report.transitions],
        "thresholds": [
            {
                "step": i,
                "radicand": str(exact.radicand),
                "root": exact.root,
                "T_frak_approx": approx,
            }
            for i, exact, approx in report.thresholds
        ],
    }
    if cfg.csv_out:
        with open(cfg.csv_out, "w") as fh:
            fh.write(_sweep_csv(report))
        payload["csv_out"] = cfg.csv_out
    return payload


def _sweep_csv(report):
    width = max(len(row.verdicts) for row in report.rows)
    header = "D,rank,nullity," + ",".join(f"verdict_{i}" for i in range(width))
    lines = [header]
    for row in report.rows:
        cells = [str(row.degree), str(row.rank), str(row.nullity)]
        cells.extend(_verdict_str(v) for v in row.verdicts)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_polygon_export(cfg, model):
    chain = build_chain(model)
    lines = ["dim,phi_approx," + ",".join(f"e_{j + 1}" for j in range(model.l))]
    for dim, approx, exponents in polygon_rows(model, chain):
        lines.append(
            ",".join([str(dim), repr(approx)] + [str(e) for e in exponents])
        )
    return "\n".join(lines) + "\n"


# {(group, action or None): handler}, in the order of the help text
_COMMANDS = {
    ("chain", "build"): _cmd_chain_build,
    ("chain", "verify"): _cmd_chain_verify,
    ("gamma", "enumerate"): _cmd_gamma_enumerate,
    ("gamma", "count"): _cmd_gamma_count,
    ("gamma", "check"): _cmd_gamma_check,
    ("locus", "rank"): _cmd_locus_rank,
    ("locus", "probe"): _cmd_locus_probe,
    ("locus", "sweep"): _cmd_locus_sweep,
    ("polygon", "export"): _cmd_polygon_export,
    ("mu", None): _cmd_mu,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser of each of its subcommands, whose
    usage errors raise `UsageError` instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_common(parser):
    parser.add_argument("-c", "--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--seed", help="override the config seed")
    parser.add_argument(
        "--limit", action="append", default=[], metavar="KEY=VALUE",
        help="override a limit, e.g. --limit enumeration_max=20000000",
    )


@functools.cache
def _build_parser():
    """The full parser, and the table {`_COMMANDS` key: the parser of that
    command's options}, filled as the full parser is built."""
    parser = _Parser(
        prog="slopechain",
        description="exact subgroup chains, box-point counting, base-locus probes",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {}
    commands = {}
    for group, action in _COMMANDS:
        if action is None:
            commands[group, action] = sub.add_parser(group)
            continue
        if group not in actions:
            actions[group] = sub.add_parser(group).add_subparsers(dest="action", required=True)
        commands[group, action] = actions[group].add_parser(action)
    for command in commands.values():
        _add_common(command)
    return parser, commands


def _parse_argv(argv):
    """The `_COMMANDS` key and the options of a command line.  The options
    are parsed by the command's own parser alone; a command line that does
    not start with command words goes through the full parser, which writes
    the help and the usage errors."""
    parser, commands = _build_parser()
    argv = list(argv)
    key = tuple(argv[:2])
    if key not in commands:
        key = (*argv[:1], None)
    if key in commands:
        words = 1 if key[1] is None else 2
        return key, commands[key].parse_args(argv[words:])
    args = parser.parse_args(argv)
    return (args.group, getattr(args, "action", None)), args


def run(argv) -> int:
    try:
        (group, action), args = _parse_argv(argv)
        cfg = parse_config(_read_text(args.config))
        if args.seed is not None:
            cfg.seed = cfg.echo["seed"] = _seed(_override("seed", args.seed))
        for override in args.limit:
            key, _, value = override.partition("=")
            setattr(cfg.limits, key, _limit(key, _override(f"limits.{key}", value)))
        model = build_model(cfg.model)
        payload = _COMMANDS[group, action](cfg, model)
        if isinstance(payload, str):
            parts = (payload,)
        else:
            report = {
                "schema": SCHEMA,
                "command": " ".join(filter(None, (group, action))),
                "config": cfg.echo,
                "provenance": {
                    "version": __version__,
                    "seed": cfg.seed,
                    "permutation": list(model.permutation),
                },
            }
            report.update(payload)
            parts = chain(_report_chunks(report), ("\n",))
        out_path = args.out or cfg.out
        if out_path:
            with open(out_path, "w") as fh:
                fh.writelines(parts)
        else:
            sys.stdout.writelines(parts)
        return 0
    except CertificateViolation as exc:
        _emit_error(exc)
        return 2
    except (SlopechainError, OSError) as exc:
        _emit_error(exc)
        return 1


def _read_text(path) -> str:
    """The UTF-8 text of a config file; undecodable bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"config is not UTF-8 text: {exc.reason}") from None


def _emit_error(exc):
    body = {
        "schema": SCHEMA,
        "error": {"code": type(exc).__name__, "message": str(exc)},
    }
    if isinstance(exc, CertificateViolation):
        body["error"]["kind"] = exc.kind
        if exc.step is not None:
            body["error"]["step"] = exc.step
        if exc.witness is not None:
            body["error"]["witness"] = [list(r) for r in exc.witness]
    sys.stdout.writelines(chain(_report_chunks(body), ("\n",)))


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
