"""Span tracing of wpp_mori's public functions, installed from outside the package.

`Tracer.install` replaces each public function of the traced modules in every
namespace that binds it (its own module and each `from .x import name` site),
plus three `SparsePoly` methods, with a wrapper that records one span per
call: name, start, end, parent span and item id.  Spans stay in memory until
the run ends.  `uninstall` puts every original object back.

Untraced on purpose:
- `poly.grevlex_key` is bound as a default argument at import time
  (`leading(key=grevlex_key)`, `GroebnerBasis.key`), so most of its calls
  cannot be reached from outside; `poly.block_key` returns such a key.
- `mult.binom_int` is called once per matrix entry by `condition_matrix`
  (millions of calls per workload); a wrapper would cost more than the call
  and its time is part of `mult.condition_matrix.self_s`.
"""

import functools
import importlib
import time
from types import FunctionType

MODULES = (
    "linalg", "mult", "orthpair", "poly", "groebner",
    "coxring", "verifygens", "weights", "cli",
)
UNTRACED = frozenset({"grevlex_key", "block_key", "binom_int"})
SPARSEPOLY_METHODS = {"__init__": "init", "__mul__": "mul", "substitute": "substitute"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


# Per-call measurements beyond time: name -> (stat, aggregate, probe(args, kwargs, result)).
PROBES = {
    "linalg.rank": ("max_cells", max, lambda a, k, r: _cells(_arg(a, k, 0, "rows"))),
    "linalg.kernel_basis": (
        "max_cells", max,
        lambda a, k, r: _cells(_arg(a, k, 0, "rows"), _arg(a, k, 1, "ncols")),
    ),
    "mult.condition_matrix": ("rows", sum, lambda a, k, r: len(r[0])),
    "mult.slice_dim": (
        "nonzero_ratio", lambda vs: sum(vs) / len(vs), lambda a, k, r: 1 if r > 0 else 0,
    ),
    "groebner.buchberger": ("max_basis", max, lambda a, k, r: len(r.elements)),
}


class Tracer:
    """Wrappers plus the in-memory span store of one traced run."""

    def __init__(self):
        self.names = []
        # span = (name id, parent span index or -1, item id, start, end, outermost)
        self.spans = []
        self.probed = {}
        self.item = -1
        self._stack = [-1]
        self._open = []
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        spans, stack, open_count, probed = self.spans, self._stack, self._open, self.probed
        probe = PROBES.get(name, (None, None, None))[2]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outermost = open_count[nid] == 0
            open_count[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_count[nid] -= 1
                stack.pop()
                spans[idx] = (nid, parent, tracer.item, start, end, outermost)
            if probe is not None:
                probed[idx] = probe(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function at every binding site, and the SparsePoly methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"wpp_mori.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNTRACED
                ):
                    wrappers[value] = self._wrapper(value, f"{short}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        sparse = importlib.import_module("wpp_mori.poly").SparsePoly
        for attr, stat in SPARSEPOLY_METHODS.items():
            fn = sparse.__dict__[attr]
            self._patch(sparse, attr, self._wrapper(fn, f"poly.SparsePoly.{stat}"))

    def uninstall(self):
        """Restore every patched attribute to the object found at install time."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _self_times(self):
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for nid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_stats(self):
        """Per function: calls, self_s, total_s, and its probe statistic if any.

        Self time is a span's duration minus the durations of its direct child
        spans; total time sums only spans with no open span of the same name
        above them, so recursion is not counted twice.
        """
        stats = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names
        }
        own = self._self_times()
        probe_values = {}
        for idx, (nid, _, _, start, end, outermost) in enumerate(self.spans):
            s = stats[self.names[nid]]
            s["calls"] += 1
            s["self_s"] += own[idx]
            if outermost:
                s["total_s"] += end - start
            if idx in self.probed:
                probe_values.setdefault(self.names[nid], []).append(self.probed[idx])
        for name, (stat, aggregate, _) in PROBES.items():
            if name in stats:
                values = probe_values.get(name)
                stats[name][stat] = aggregate(values) if values else 0
        return stats

    def item_self_times(self):
        """item id -> {function name: self time within that item}."""
        own = self._self_times()
        out = {}
        for idx, (nid, _, item, _, _, _) in enumerate(self.spans):
            per = out.setdefault(item, {})
            name = self.names[nid]
            per[name] = per.get(name, 0.0) + own[idx]
        return out

    def write_spans(self, path, item_keys):
        """One tab-separated line per span: name, parent, item key, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\titem\tstart\tend\n")
            for idx, (nid, parent, item, start, end, _) in enumerate(self.spans):
                key = item_keys[item] if 0 <= item < len(item_keys) else ""
                fh.write(f"{idx}\t{self.names[nid]}\t{parent}\t{key}\t{start!r}\t{end!r}\n")
