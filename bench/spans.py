"""Span tracing of slopechain from outside the library.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, task id), and it
does so on every module that binds the function, so that a call made through
`cli`, `chain` or `locus` is traced the same as a call into the defining
module.  `cli.run` becomes the root span of each task.  `Poly` arithmetic is
too fine-grained for spans; its multiplications and exact divisions are only
counted.

Spans are kept in memory in flat arrays and written out once, when the run
ends.  Self time (a span's duration minus the time covered by its child spans)
and call counts are aggregated per name while the spans are recorded.  A few
wrappers also take deterministic counters from their arguments or results
(matrix shapes, entry sizes, closures found); that bookkeeping is excluded
from every span's self time, so the self times of all spans add up to the
traced wall time less the bookkeeping.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("linalg", "model", "chain", "gamma", "locus")
ROOT = "cli"


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_bits(rows) -> int:
    return max((_entry_bits(x) for row in rows for x in row), default=0)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans of one process; install once the package is imported.

    With `keep_spans` false only the per-name aggregates are kept, for runs
    with millions of calls whose individual spans nobody reads.
    """

    def __init__(self, package, keep_spans=True):
        self.package = package
        self.keep_spans = keep_spans
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.maxima = {}
        self.enabled = False
        self.task = -1
        self.bookkeeping_s = 0.0
        self._stack = []
        self._child_calls = {}
        self._patched = []
        # one entry per span: name id, parent span index, task id, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- registration -------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _modules(self):
        prefix = self.package.__name__
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self):
        """Wrap every public function of the traced modules, plus `cli.run`,
        on every package module that binds it, and count `Poly` products and
        exact divisions."""
        targets = []
        for layer in TRACED_MODULES:
            mod = getattr(self.package, layer)
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    targets.append((f"{layer}.{name}", fn))
        targets.append((ROOT, self.package.cli.run))
        hooks = self._hooks()
        replacement = {}
        for span_name, fn in targets:
            replacement[id(fn)] = (fn, self._wrap(fn, span_name, hooks.get(span_name)))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        poly = self.package.polys.Poly
        for attr, counter in (
            ("__mul__", "polys.mul.calls"),
            ("__rmul__", "polys.mul.calls"),
            ("exact_div", "polys.exact_div.calls"),
        ):
            original = poly.__dict__[attr]
            self._patched.append((poly, attr, original))
            setattr(poly, attr, self._count(original, counter))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------------

    def _count(self, fn, counter):
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.enabled:
                counters[counter] += 1
            return fn(*args, **kwargs)

        return counting

    def _wrap(self, fn, span_name, hook):
        nid = self._name_id(span_name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        child_calls = self._child_calls
        keep = self.keep_spans
        names, parents, tasks = self.span_name, self.span_parent, self.span_task
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent_idx = -1
            if stack:
                parent = stack[-1]
                key = (parent[0], nid)
                child_calls[key] = child_calls.get(key, 0) + 1
                parent_idx = parent[1]
            idx = len(starts)
            frame = [nid, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            if keep:
                names.append(nid)
                parents.append(parent_idx)
                tasks.append(self.task)
                starts.append(start)
                ends.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if keep:
                    ends[idx] = end
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[2]
                if hook is not None:
                    hook(args, kwargs, result)
                    spent = perf_counter() - end
                    self.bookkeeping_s += spent
                    duration += spent
                if stack:
                    stack[-1][2] += duration

        return traced

    # -- counters taken at span boundaries ------------------------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _hooks(self):
        pkg = self.package
        image_lines = pkg.model.image_lines
        box_bound = pkg.gamma.box_bound

        def enumerate_closures(args, kwargs, result):
            if result is None:
                return
            model = args[0]
            self._add("model.enumerate_closures.closures", len(result))
            if model.m == 0:
                height = _arg(args, kwargs, 1, "height", 2)
                open_closures = sum(1 for s in result if s.dim < model.n)
                self._add(
                    "model.enumerate_closures.attempts",
                    open_closures * len(image_lines(model, height)),
                )

        def rat_rref(args, kwargs, result):
            rows = list(args[0])
            self._max("linalg.rat_rref.max_rows", len(rows))
            self._max("linalg.rat_rref.max_cols", args[1])
            bits = _max_bits(rows)
            if result is not None:
                bits = max(bits, _max_bits(result[0]))
            self._max("linalg.rat_rref.max_entry_bits", bits)

        def poly_rank(args, kwargs, result):
            self._max("linalg.poly_rank.max_rows", len(args[0]))

        def verify_chain(args, kwargs, result):
            if result is not None:
                self._add("chain.verify_chain.candidates", len(result.candidates))

        def enumerate_gamma(args, kwargs, result):
            if result is None:
                return
            model = args[0]
            lam = pkg.polys.as_fraction(_arg(args, kwargs, 1, "lam", 1))
            self._add(
                "gamma.enumerate_gamma.tuples",
                math.prod(2 * box_bound(s, lam) + 1 for s in model.scales),
            )
            self._add("gamma.enumerate_gamma.points", len(result))

        def jet_matrix(args, kwargs, result):
            if result is not None:
                self._max("locus.jet_matrix.max_rows", len(result.rows))
                self._max("locus.jet_matrix.max_cols", len(result.basis))

        def kernel_basis(args, kwargs, result):
            if result is not None:
                self._max("locus.kernel_basis.nullity_max", len(result.vectors))

        return {
            "model.enumerate_closures": enumerate_closures,
            "linalg.rat_rref": rat_rref,
            "linalg.poly_rank": poly_rank,
            "chain.verify_chain": verify_chain,
            "gamma.enumerate_gamma": enumerate_gamma,
            "locus.jet_matrix": jet_matrix,
            "locus.kernel_basis": kernel_basis,
        }

    # -- results ------------------------------------------------------------

    def child_calls(self, parent, child):
        ids = self._ids
        if parent not in ids or child not in ids:
            return 0
        return self._child_calls.get((ids[parent], ids[child]), 0)

    def layer_table(self):
        """{span name: (calls, self seconds)} for every name that was called."""
        return {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write(self, stem):
        """Write `<stem>.spans`: one JSON header line, then the five span
        arrays back to back in the order the header lists them."""
        fields = ("span_name", "span_parent", "span_task", "span_start", "span_end")
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(f"{stem}.spans", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)

