"""In-memory spans around the public calls into each qgasgeo layer.

The wrappers are installed from the benchmark's own files by replacing module
attributes; the library is not modified.  A span is (id, parent, name, start,
end, attrs).  Items run one at a time on one thread.
"""

import itertools
import time


def _moment_info(attrs, args, out):
    spec, z = args[0], args[1]
    attrs["stat"] = spec.statistics
    attrs["q"] = float(spec.q)
    attrs["z"] = float(z)


def _quad_info(attrs, args, out):
    # quad_vec(..., full_output=True) returns (res, err, info)
    info = out[2] if isinstance(out, tuple) and len(out) == 3 else None
    if info is not None and hasattr(info, "neval"):
        attrs["neval"] = int(info.neval)
        attrs["intervals"] = len(info.intervals)


def _series_info(attrs, args, out):
    series = args[0]
    attrs["terms"] = len(series._m)
    attrs["z"] = float(series.z)
    attrs["q"] = float(series.q)


# (module, attribute, span name, annotation).  The binding is replaced in the
# module whose code calls it: geometry calls moment_integrals through its own
# import.
_FUNCTIONS = [
    ("qgasgeo.geometry", "curvature_closed_form", "geometry.curvature", None),
    ("qgasgeo.geometry", "curvature_sign_boundary", "geometry.search", None),
    ("qgasgeo.geometry", "determinant_curvature_oracle", "geometry.oracle", None),
    ("qgasgeo.geometry", "moment_integrals", "quadrature.moments", _moment_info),
    ("qgasgeo.virial", "virial_threshold", "virial.threshold", None),
    ("qgasgeo.quadrature", "quad_vec", "quadrature.quad_vec", _quad_info),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = []          # ids of the open spans
        self.missing = []         # boundaries that could not be wrapped
        self._installed = []      # (owner, attribute, original) to restore

    def begin(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return [sid, parent, name, time.perf_counter(), None, {}]

    def end(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def run_item(self, index, fn, *args):
        """Run fn(*args) as item `index`; returns its result."""
        span = self.begin("item")
        span[5]["index"] = index
        try:
            return fn(*args)
        finally:
            self.end(span)

    def wrap(self, fn, name, annotate=None):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span[5], args, out)
                return out
            finally:
                self.end(span)

        return wrapper

    def _patch(self, owner, attr, span_name, annotate=None, label=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label or f"{owner.__name__}.{attr}")
            return
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, span_name, annotate))

    def install(self):
        """Wrap the layer boundaries; names that no longer exist are recorded as missing."""
        import importlib

        for mod_name, attr, span_name, annotate in _FUNCTIONS:
            self._patch(importlib.import_module(mod_name), attr, span_name, annotate)
        distributions = importlib.import_module("qgasgeo.distributions")
        cls = getattr(distributions, "BosonThetaSeries", None)
        if cls is None:
            self.missing.append("qgasgeo.distributions.BosonThetaSeries")
        else:
            self._patch(cls, "__init__", "distributions.series_build", _series_info,
                        "qgasgeo.distributions.BosonThetaSeries.__init__")

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], [])):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (s[4] - s[3]) - covered
    return out
