"""Layer tracing for the benchmark, installed from outside the package.

Every public function of the traced ``toplax`` modules is replaced, at each
name a caller binds it under, by a wrapper that records one span: function,
parent span, start and end.  ``model`` imports the tensor helpers by name,
``specfun`` binds ``theta_sum`` from ``_accel`` and the R-matrix families
keep their methods on the classes, so a function is patched in every module
namespace (and class) that holds it; patching only the defining module would
leave those calls uncounted.

Spans are kept in memory during a pass and folded into per-function totals
by ``Tracer.collect`` after the pass; nothing is written while work runs.
"""

import functools
import inspect
import sys
import time
from array import array

from toplax import cli, dynamics, model, rmatrix, specfun, tensor

LAYERS = {
    "specfun": specfun,
    "tensor": tensor,
    "rmatrix": rmatrix,
    "model": model,
    "dynamics": dynamics,
    "cli": cli,
}

# private helpers that carry a per-layer count the public functions cannot
EXTRA = {"dynamics": ("_rk4_step",)}

GROUPS = {
    "specfun": {"check_pole": "pole_guard"},
    "model": {
        "eom_rhs": "eom_rhs",
        "bracket_flow": "bracket_flow",
        "build_L": "lax", "build_M": "lax", "flow_L": "lax",
        "lax_residual": "lax",
        "exchange_residual": "exchange", "classical_r_big": "exchange",
    },
    "dynamics": {
        "state_to_vector": "state_codec", "vector_to_state": "state_codec",
        "integrate": "integrate", "_rk4_step": "integrate",
        "write_csv": "csv", "csv_text": "csv",
    },
    "rmatrix": {"certify": "certify"},
}
# default group of a layer's functions that no table above names
DEFAULT_GROUP = {"specfun": "scalar", "tensor": "tensor", "cli": "cli"}

FAMILY_METHODS = ("r", "R", "F", "F0", "m", "m0")


def _family_classes():
    return [cls for cls in vars(rmatrix).values()
            if inspect.isclass(cls) and issubclass(cls, rmatrix.RMatrixFamily)]


class Tracer:
    """Span recorder that patches the package in place while installed."""

    def __init__(self):
        self.funcs = []          # fid -> (layer, group, name)
        # flat records of 4 int64: fid, parent span index, start ns, end ns
        self.spans = array("q")
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.theta_pairs = 0
        self.theta_keys = set()
        self.f0_keys = set()

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, group, name, observe=None):
        fid = len(self.funcs)
        self.funcs.append((layer, group, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((fid, stack[-1] if stack else -1, 0, 0))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[4 * idx + 2] = t0
                spans[4 * idx + 3] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_theta(self, args, kwargs, result):
        # theta_sum(z, tau, deriv, tol, cap) -> (value, converged, n_pairs)
        self.theta_pairs += result[2]
        self.theta_keys.add(args + tuple(sorted(kwargs.items())))

    def _observe_f0(self, args, kwargs, result):
        fam = args[0]
        self.f0_keys.add((type(fam), fam.N, fam.flavor,
                          getattr(fam, "C", None))
                         + args[1:] + tuple(sorted(kwargs.items())))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Patch every binding of every traced function; undo with remove()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}   # id(original) -> wrapper
        for layer, mod in LAYERS.items():
            extra = EXTRA.get(layer, ())
            for name, fn in vars(mod).items():
                public = not name.startswith("_") or name in extra
                if not (public and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    continue
                group = GROUPS.get(layer, {}).get(
                    name, DEFAULT_GROUP.get(layer, "other"))
                wrapped[id(fn)] = self._wrap(fn, layer, group, name)
        # the series kernel (compiled or pure) is defined outside specfun
        # but is its hot path
        kernel = specfun.theta_sum
        wrapped[id(kernel)] = self._wrap(kernel, "specfun", "theta",
                                         "theta_sum",
                                         observe=self._observe_theta)
        # every loaded toplax module may hold a binding of a traced function
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name.startswith("toplax.") and mod is not None]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._patch(ns, name, wrapped[id(value)])
        for cls in _family_classes():
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                group = name if name in FAMILY_METHODS else "other"
                observe = self._observe_f0 if name == "F0" else None
                self._patch(cls, name, self._wrap(
                    fn, "rmatrix", group, f"{cls.__name__}.{name}", observe))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # --- aggregation --------------------------------------------------------

    def collect(self):
        """Fold the spans recorded since the last call into a pass summary.

        Returns {"funcs": {(layer, group, name): [calls, self_ns, incl_ns]},
        "eom_ms": [inclusive eom_rhs durations], "theta_pairs",
        "theta_distinct", "f0_distinct"} and clears the recorded spans.
        """
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        spans = self.spans
        fids, parents = spans[0::4], spans[1::4]
        durs = [t1 - t0 for t0, t1 in zip(spans[2::4], spans[3::4])]
        child = [0] * len(durs)
        for parent, dur in zip(parents, durs):
            if parent >= 0:
                child[parent] += dur
        funcs = {}
        eom_ms = []
        for fid, dur, c in zip(fids, durs, child):
            key = self.funcs[fid]
            row = funcs.setdefault(key, [0, 0, 0])
            row[0] += 1
            row[1] += dur - c
            row[2] += dur
            if key[1] == "eom_rhs":
                eom_ms.append(dur / 1e6)
        out = {
            "funcs": funcs,
            "eom_ms": eom_ms,
            "theta_pairs": self.theta_pairs,
            "theta_distinct": len(self.theta_keys),
            "f0_distinct": len(self.f0_keys),
        }
        del spans[:]
        self.theta_pairs = 0
        self.theta_keys.clear()
        self.f0_keys.clear()
        return out
