"""The four benchmark workloads: fixed task lists, seeded variants, oracles.

Each workload draws one fixed list of configs from a constant master seed,
in strata of fixed size.  A run's `--seed` picks one of VARIANTS reflected
images of that list: every config gets a random set of its coordinates
negated (and, in `jet_sweep`, a new probe seed), and the task order is
shuffled.  The program sees different inputs and writes different reports
for different seeds, but does the same work, so the spread of the metrics
across seeds measures the host and the program, not the luck of a draw.
Because the variants are finite, the report digest of every task any seed
can produce is recorded in `digests.json`.

Why each workload exists (the layer it stresses and the one it bypasses):

* certify   - rational configs in the style of the acceptance sampler plus
  generic three-generator families; `chain verify` spends most of its time
  in `model.enumerate_closures`, with tens of thousands of tiny `linalg`
  calls.  No jets, no box enumeration.
* jet_sweep - a few large `Fraction` eliminations (`locus` sweeps, probes and
  ranks on planar and univariate configs).  No closure enumeration; `linalg`
  in the opposite shape to certify.
* box_count - `gamma` enumeration, counting and checks on boxes of up to
  8000 tuples, with dependent generators; the only workload with reports of
  hundreds of kilobytes.  No elimination.
* symbolic  - configs with formal symbols, the only workload that reaches
  `polys` and the polynomial `linalg` kernels.  Configs with n = 3 and l = 3
  take 18-26 s each and are left to the one-shot baselines.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from harness import Task

VARIANTS = 8

# ---------------------------------------------------------------------------
# helpers


def _rank(rows) -> int:
    """Rank over Q of a small integer matrix (used only to sort configs)."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _fill(sizes, draw, rng, max_draws=100_000):
    """Draw (stratum, item) pairs until every stratum holds its size."""
    items = {name: [] for name in sizes}
    for _ in range(max_draws):
        if all(len(items[s]) >= n for s, n in sizes.items()):
            return items
        stratum, item = draw(rng)
        if stratum in items and len(items[stratum]) < sizes[stratum]:
            items[stratum].append(item)
    raise RuntimeError(f"could not fill strata {sizes}")


def _negate(x):
    if isinstance(x, dict):
        return {"const": _negate(x.get("const", 0)),
                "coeffs": {k: _negate(v) for k, v in x.get("coeffs", {}).items()}}
    if isinstance(x, str):
        return str(-Fraction(x))
    return -x


def _reflected(config, rng):
    """The config with a random set of coordinates negated: the same subgroup
    lattice, box sizes and elimination shapes.  Coordinates are not swapped,
    because that reorders the monomial basis and the elimination columns,
    and with them the pivot path and the cost of the large eliminations."""
    flips = [rng.random() < 0.5 for _ in range(config["n"])]
    gens = [[_negate(x) if flip else x for x, flip in zip(g, flips)]
            for g in config["generators"]]
    return dict(config, generators=gens)


def _box_tuples(scales, lam) -> int:
    return math.prod(2 * math.ceil(Fraction(lam) * Fraction(s)) - 1 for s in scales)


class Workload:
    """A named, fixed list of (config, commands) items in strata, with oracles.

    `strata` maps each stratum to the number of items it holds.
    """

    name = ""
    master_seed = 0
    strata: dict = {}
    warmup_stratum = ""

    def __init__(self):
        self.items = _fill(self.strata, self.draw, random.Random(self.master_seed))

    def draw(self, rng):
        raise NotImplementedError

    def variant(self, config, rng):
        return _reflected(config, rng)

    def tasks(self, seed):
        """The task list of one pass for `seed`."""
        rng = random.Random(f"{self.name}/{seed % VARIANTS}")
        tasks = []
        for stratum in sorted(self.items):
            for config, commands in self.items[stratum]:
                config = self.variant(config, rng)
                tasks.extend(Task(stratum, tuple(cmd), config) for cmd in commands)
        rng.shuffle(tasks)
        return tasks

    def all_tasks(self):
        """Every task any seed can put in a run (what the digests cover)."""
        unique = {}
        for variant in range(VARIANTS):
            for task in self.tasks(variant):
                unique.setdefault(task.key, task)
        return list(unique.values())

    def warmup(self, tasks):
        """The untimed warm-up: the first task of the cheapest stratum."""
        return next(t for t in tasks if t.stratum == self.warmup_stratum)

    def oracle(self, ctx, task, outcome):
        """None when the output passes the independent check, else a cause."""
        return None


# ---------------------------------------------------------------------------
# certify


def _sampler_scales(rng, l):
    scales = []
    for _ in range(l):
        kind = rng.random()
        if kind < 0.25 and scales:
            scales.append(scales[-1])
        elif kind < 0.5:
            scales.append(Fraction(rng.randint(1, 100)))
        else:
            scales.append(Fraction(rng.randint(4, 400), rng.randint(1, 4)))
    return [str(max(s, Fraction(1))) for s in scales]


def _small_vec(rng, n):
    return [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]


def _sampler_generators(rng, n, l):
    if l <= 3:
        return [_small_vec(rng, n) for _ in range(l)]
    if rng.random() < 0.5:
        gens = [_small_vec(rng, n) for _ in range(3)]
        gens.insert(rng.randrange(4), [0] * n)
        return gens
    a, b = _small_vec(rng, n), _small_vec(rng, n)
    gens = []
    for _ in range(l):
        ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
        gens.append([ca * x + cb * y for x, y in zip(a, b)])
    return gens


class Certify(Workload):
    name = "certify"
    master_seed = 0xCE47
    strata = {"light": 20, "wide": 2, "heavy": 3, "generic": 3}
    warmup_stratum = "light"
    commands = (("chain", "verify"), ("chain", "build"), ("mu",), ("polygon", "export"))

    def draw(self, rng):
        if rng.random() < 0.25:
            n = rng.choice((3, 4))
            gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
            if _rank(gens) < 3:
                return None, None
            return "generic", ({"n": n, "generators": gens,
                                "scales": _sampler_scales(rng, 3)}, self.commands)
        n = rng.randint(1, 4)
        l = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4))
        gens = _sampler_generators(rng, n, l)
        config = {"n": n, "generators": gens, "scales": _sampler_scales(rng, l)}
        rank = _rank(gens) if l else 0
        stratum = "heavy" if rank >= 3 else "wide" if l == 4 else "light"
        return stratum, (config, self.commands)

    def oracle(self, ctx, task, outcome):
        """The greedy (definitional) chain must equal the closed form the CLI
        reports, in every command's own terms."""
        if outcome.rc != 0:
            return None
        pkg = ctx.pkg
        model = pkg.build_model(pkg.cli.parse_config(json.dumps(task.config)).model)
        if task.command == ("mu",):
            greedy = pkg.build_chain_greedy(model.equal_scale_model())
            mus = [
                str(Fraction(sum((b.phi - a.phi).exponents), b.dim - a.dim))
                for a, b in zip(greedy.nodes, greedy.nodes[1:])
            ]
            report = json.loads(outcome.body)
            if report["equal_scale_chain_dims"] != list(greedy.dims()) or report["mu_list"] != mus:
                return "mu differs from the greedy equal-scale chain"
            return None
        greedy = pkg.build_chain_greedy(model)
        if task.command == ("polygon", "export"):
            rows = outcome.body.decode().splitlines()[1:]
            got = [(int(r.split(",")[0]), [int(x) for x in r.split(",")[2:]]) for r in rows]
            want = [(node.dim, list(node.phi.exponents)) for node in greedy.nodes]
            return None if got == want else "polygon differs from the greedy chain"
        nodes = json.loads(outcome.body)["chain"]["nodes"]
        got = [(node["dim"], node["coeff_lattice"]) for node in nodes]
        want = [(s.dim, [list(r) for r in s.coeff.rows]) for s in greedy.subgroups]
        return None if got == want else "chain differs from build_chain_greedy"


# ---------------------------------------------------------------------------
# jet_sweep


_PLANAR_BASES = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 2]], [[2, 1], [1, 1]])


class JetSweep(Workload):
    name = "jet_sweep"
    master_seed = 0x7E75
    strata = {"t2_planar": 1, "t1_probe": 1, "univariate": 20, "small": 20}
    warmup_stratum = "univariate"

    def draw(self, rng):
        kind = rng.choice(("t2_planar", "t1_probe", "univariate", "univariate", "small", "small"))
        eps = rng.choice(("1/2", "1/3", "2/3"))
        seed = rng.randrange(10 ** 6)
        if kind == "t2_planar":
            config = {"n": 2, "generators": [[1, 0], [0, 1]], "scales": ["6", "3"],
                      "T": 2, "D_range": [1, 7], "epsilon": eps, "seed": seed,
                      "limits": {"sample_count": 20}}
            return kind, (config, (("locus", "sweep"),))
        if kind == "t1_probe":
            config = {"n": 2, "generators": [[1, 0], [0, 1]], "scales": ["4", "3"],
                      "T": 1, "D_range": [1, 9], "epsilon": eps, "seed": seed,
                      "limits": {"sample_count": 40}}
            return kind, (config, (("locus", "sweep"),))
        if kind == "univariate":
            s, t = rng.randint(2, 4), rng.randint(1, 2)
            threshold = t * (2 * s - 1)
            config = {"n": 1, "generators": [[rng.choice((1, -1, 2))]], "scales": [str(s)],
                      "T": t, "D": rng.randint(max(1, threshold - 3), threshold + 3),
                      "D_range": [max(1, threshold - 3), threshold + 2], "epsilon": eps,
                      "seed": seed, "limits": {"sample_count": 30}}
            return kind, (config, (("locus", "sweep"), ("locus", "rank"), ("locus", "probe")))
        if rng.random() < 0.2:
            config = {"n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      "scales": ["2", "2", "2"], "T": 1, "D": rng.randint(2, 3)}
        else:
            sa, sb = rng.choice(((2, 2), (3, 2)))
            config = {"n": 2, "generators": rng.choice(_PLANAR_BASES),
                      "scales": [str(sa), str(sb)], "T": rng.randint(1, 2),
                      "D": rng.randint(2, 6)}
        config.update({"epsilon": eps, "seed": seed, "limits": {"sample_count": 30}})
        return "small", (config, (("locus", "rank"), ("locus", "probe")))

    def variant(self, config, rng):
        return dict(_reflected(config, rng), seed=rng.randrange(10 ** 6))

    def oracle(self, ctx, task, outcome):
        """Univariate law: nullity = max(0, D + 1 - T(2S - 1))."""
        if task.stratum != "univariate" or outcome.rc != 0:
            return None
        cfg = task.config
        cap = cfg["T"] * (2 * int(cfg["scales"][0]) - 1)
        report = json.loads(outcome.body)
        if task.command == ("locus", "sweep"):
            for row in report["rows"]:
                d = row["D"]
                if row["nullity"] != max(0, d + 1 - cap) or row["rank"] != min(d + 1, cap):
                    return f"univariate nullity law fails at D={d}"
        elif task.command == ("locus", "rank"):
            if report["rank"] != min(cfg["D"] + 1, cap):
                return "univariate rank law fails"
        return None


# ---------------------------------------------------------------------------
# box_count


def _unit_rows(l, picks):
    return [[1 if j == i else 0 for j in range(l)] for i in picks]


class BoxCount(Workload):
    name = "box_count"
    master_seed = 0xB0C5
    # strata by the number of box tuples a task walks (both lambdas for check)
    strata = {"to500": 50, "to1k": 28, "to2k": 14, "to4k": 6, "to8k": 2}
    warmup_stratum = "to500"

    def draw(self, rng):
        identity = rng.random() < 0.35
        if identity:
            n = l = rng.choice((3, 4))
            gens = _unit_rows(l, range(l))
        else:
            n = rng.choice((2, 3))
            l = rng.choice((3, 4))
            base = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if _rank(base) < n:
                return None, None
            gens = list(base)
            while len(gens) < l:
                a, b = rng.sample(range(n), 2)
                ca, cb = rng.choice((1, -1, 2)), rng.choice((1, -1))
                gens.append([ca * x + cb * y for x, y in zip(base[a], base[b])])
            rng.shuffle(gens)
        top = round(6 * (40 / 6) ** rng.random())
        scales = sorted(
            [top] + [rng.randint(2, max(2, top // (2 + k))) for k in range(l - 1)], reverse=True
        )
        scales = [str(s) if rng.random() < 0.7 else f"{2 * s - 1}/2" for s in scales]
        if identity:
            h_prime, h_dprime = _unit_rows(l, range(l)), []
        else:
            keep = sorted(rng.sample(range(l), rng.randint(1, l)))
            h_prime = _unit_rows(l, keep)
            h_dprime = _unit_rows(l, keep[: rng.randint(0, len(keep) - 1)])
        command = rng.choice((("gamma", "enumerate"), ("gamma", "count"), ("gamma", "check")))
        lam = rng.choice(("1", "2"))
        if command == ("gamma", "check"):
            cost = _box_tuples(scales, 1) + _box_tuples(scales, 2)
        else:
            cost = _box_tuples(scales, lam)
        stratum = next((s for s, cap in (("to500", 500), ("to1k", 1000), ("to2k", 2000),
                                         ("to4k", 4000), ("to8k", 8000)) if cost <= cap), None)
        if stratum is None:
            return None, None
        config = {"n": n, "generators": gens, "scales": scales, "lambda": lam,
                  "lambdas": ["1", "2"], "h_prime": h_prime, "h_dprime": h_dprime}
        return stratum, (config, (command,))

    def oracle(self, ctx, task, outcome):
        """Identity generators (up to coordinate order and sign): the box holds
        prod(2 ceil(lambda S_j) - 1) points, and so does H' = G modulo H'' = 0."""
        cfg = task.config
        n = cfg["n"]
        support = sorted((abs(x), i) for g in cfg["generators"] for i, x in enumerate(g) if x)
        if support != [(1, i) for i in range(n)] or len(cfg["generators"]) != n:
            return None
        if outcome.rc != 0:
            return None
        report = json.loads(outcome.body)
        if task.command == ("gamma", "enumerate"):
            got = [(cfg["lambda"], report["cardinality"])]
        elif cfg["h_prime"] != _unit_rows(n, range(n)) or cfg["h_dprime"]:
            return None
        elif task.command == ("gamma", "count"):
            got = [(cfg["lambda"], report["count"])]
        else:
            got = [(row["lambda"], row["count"]) for row in report["sweep"]]
        for lam, count in got:
            if count != _box_tuples(cfg["scales"], lam):
                return f"identity box count wrong at lambda={lam}"
        return None


# ---------------------------------------------------------------------------
# symbolic


def _symbolic_coord(rng, m):
    if rng.random() < 0.35:
        coeffs = {f"t{k}": rng.choice((1, -1, 2)) for k in range(1, m + 1) if rng.random() < 0.7}
        return {"const": rng.choice((0, 0, 1, -1)), "coeffs": coeffs or {"t1": 1}}
    return rng.choice((0, 0, 1, -1, 2))


class Symbolic(Workload):
    name = "symbolic"
    master_seed = 0x5E4B
    strata = {"light": 22, "mid": 5, "ratsym": 12}
    warmup_stratum = "light"
    commands = (("chain", "build"), ("chain", "verify"), ("mu",))

    def draw(self, rng):
        m = rng.choice((1, 1, 2))
        n, l = rng.choice((1, 2, 2, 3)), rng.choice((1, 2, 2, 3, 3))
        if n == 3 and l == 3:
            return None, None
        rational = rng.random() < 0.3
        gens = [
            [rng.choice((0, 0, 1, -1, 2)) if rational else _symbolic_coord(rng, m)
             for _ in range(n)]
            for _ in range(l)
        ]
        config = {"n": n, "symbols": [f"t{k}" for k in range(1, m + 1)],
                  "generators": gens, "scales": [str(rng.randint(1, 30)) for _ in range(l)]}
        if rational:
            stratum = "ratsym"
        elif n == 2 and l == 3:
            stratum = "mid"
        else:
            stratum = "light"
        return stratum, (config, self.commands)

    def oracle(self, ctx, task, outcome):
        """Declared symbols that no coordinate uses must not change the chain:
        the same config without symbols takes the rational path."""
        if task.stratum != "ratsym":
            return None
        twin_config = {k: v for k, v in task.config.items() if k != "symbols"}
        twin = ctx.run_untimed(Task(task.stratum, task.command, twin_config))
        if twin.rc != outcome.rc:
            return f"exit {outcome.rc}, but {twin.rc} without the symbols"
        if outcome.rc != 0:
            return None
        got, want = json.loads(outcome.body), json.loads(twin.body)
        keys = ("chain",) if task.command[0] == "chain" else (
            "mu", "mu_star", "mu_list", "well_distributed", "equal_scale_chain_dims")
        if any(got[k] != want[k] for k in keys):
            return "result differs from the same config without symbols"
        return None


WORKLOADS = {w.name: w for w in (Certify, JetSweep, BoxCount, Symbolic)}
