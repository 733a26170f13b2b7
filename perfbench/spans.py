"""In-memory span recorder for traced benchmark runs.

``Tracer.install`` wraps every public function of the corotcalc modules, plus
a fixed list of methods, and replaces each wrapped function under every name
that any corotcalc module binds it to.  Internal callers reach functions
through ``from .matcore import as_array``-style bindings, so patching the
defining module alone would miss them.

Each call records one span: name, parent span, start, end and an integer
tag (the eigensolve dimension, the series term count, ...).  Spans are kept
in flat typed arrays and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# Modules whose public functions are traced, in layer order.
MODULES = (
    "matcore",
    "scalarfun",
    "calculus",
    "kinematics",
    "monotonicity",
    "sampling",
    "verify",
    "cli",
)

# Public functions of ``cli`` (the module has no ``__all__``).
CLI_PUBLIC = ("main",)

# (module, class, method) traced in addition to the module functions.
METHODS = (
    ("matcore", "Matrix", "__init__"),
    ("matcore", "SymMatrix", "__init__"),
    ("matcore", "SkewMatrix", "__init__"),
    ("matcore", "SpdMatrix", "__init__"),
    ("matcore", "EigenDecomposition", "__init__"),
    ("scalarfun", "ScalarKernel", "__call__"),
    ("scalarfun", "ScalarKernel", "taylor_eval"),
    ("monotonicity", "IsotropicFunction", "apply"),
    ("monotonicity", "IsotropicFunction", "derivative"),
)

VALIDATE = (
    "matcore.as_array",
    "matcore.Matrix.__init__",
    "matcore.SymMatrix.__init__",
    "matcore.SkewMatrix.__init__",
    "matcore.SpdMatrix.__init__",
    "matcore.EigenDecomposition.__init__",
)
SERIES = ("calculus.matfun_series", "calculus.f_of_ad_series")
SPECTRAL = (
    "calculus.f_of_ad_spectral",
    "calculus.matfun_spectral",
    "calculus.d_exp",
    "calculus.d_log",
    "calculus.exp_conjugation",
    "calculus.dlog_sandwich",
    "calculus.dlog_anticommutator",
    "calculus.dlog_sinh_pair",
    "calculus.dlog_commutator_residual",
)
SPINS = ("kinematics.log_spin_spectral", "kinematics.log_spin_commutator")
EIG_DIMS = (3, 8, 16)


def _series_tag(args, kwargs, result) -> int:
    return 2 * result.terms_used + (result.stopped_by == "tolerance")


def _make_taggers(suite_names) -> dict:
    return {
        "matcore.eigendecompose_symmetric": lambda args, kwargs, result: result.dim,
        "calculus.matfun_series": _series_tag,
        "calculus.f_of_ad_series": _series_tag,
        "kinematics.integrate_motion": lambda args, kwargs, result: len(result),
        "verify.run_suite": lambda args, kwargs, result: suite_names.index(
            args[0] if args else kwargs["name"]
        ),
    }


class Tracer:
    """Span store plus the patching that feeds it; use as a context manager."""

    def __init__(self, mods: dict):
        self._mods = mods
        self._suites = tuple(mods["verify"].SUITE_NAMES)
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack = [-1]
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn, tagger=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends, tags = (
            self.name_id, self.parent, self.start, self.end, self.tag
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            tags.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tagger is not None:
                tags[i] = tagger(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        taggers = _make_taggers(self._suites)
        mods = [self._mods[m] for m in MODULES]
        wrapped = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = self._mods[short]
            public = CLI_PUBLIC if short == "cli" else mod.__all__
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and id(fn) not in wrapped:
                    name = f"{short}.{attr}"
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, taggers.get(name)))
        for mod in mods:
            bound = [(k, v) for k, v in vars(mod).items() if id(v) in wrapped]
            for key, original in bound:
                if wrapped[id(original)][0] is original:
                    setattr(mod, key, wrapped[id(original)][1])
                    self._undo.append((mod, key, original))
        for short, cls_name, meth in METHODS:
            cls = getattr(self._mods[short], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
            self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @property
    def span_count(self) -> int:
        return len(self.name_id)

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        tag = np.frombuffer(self.tag, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return nid, parent, dur, dur - child, tag

    def save(self, path) -> None:
        """Write every span (names, parents, clock readings, tags) as .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
        )

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times; layers with no spans read 0."""
        nid, parent, dur, self_t, tag = self._arrays()

        def mask(names) -> np.ndarray:
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(nid, ids)

        def prefix(p: str) -> np.ndarray:
            return mask([n for n in self.names if n.startswith(p)])

        def self_s(m) -> float:
            return float(self_t[m].sum())

        out = {}
        eig = mask(["matcore.eigendecompose_symmetric"])
        out["matcore.eig.calls"] = int(eig.sum())
        out["matcore.eig.self_s"] = self_s(eig)
        for d in EIG_DIMS:
            sel = eig & (tag == d)
            out[f"matcore.eig.d{d}_us"] = (
                float(np.median(self_t[sel])) * 1e6 if sel.any() else 0.0
            )
        validate = mask(VALIDATE)
        out["matcore.validate.calls"] = int(validate.sum())
        out["matcore.validate.self_s"] = self_s(validate)

        call = mask(["scalarfun.ScalarKernel.__call__"])
        taylor = mask(["scalarfun.ScalarKernel.taylor_eval"])
        branch = taylor & (parent >= 0)
        branch[branch] = call[parent[branch]]
        n_call = int(call.sum())
        out["scalarfun.kernel.calls"] = n_call
        out["scalarfun.kernel.taylor_frac"] = int(branch.sum()) / n_call if n_call else 0.0
        out["scalarfun.kernel.self_s"] = self_s(call | taylor)

        series = mask(SERIES)
        n_series = int(series.sum())
        out["calculus.series.calls"] = n_series
        out["calculus.series.terms"] = int((tag[series] >> 1).sum())
        out["calculus.series.tol_stop_frac"] = (
            float((tag[series] & 1).mean()) if n_series else 0.0
        )
        out["calculus.series.self_s"] = self_s(series)
        spectral = mask(SPECTRAL)
        out["calculus.spectral.calls"] = int(spectral.sum())
        out["calculus.spectral.self_s"] = self_s(spectral)

        out["kinematics.spin.calls"] = int(mask(SPINS).sum())
        out["kinematics.spin_spectral.self_s"] = self_s(mask(SPINS[:1]))
        out["kinematics.spin_commutator.self_s"] = self_s(mask(SPINS[1:]))
        out["kinematics.hencky.self_s"] = self_s(mask(["kinematics.hencky"]))
        step = mask(["kinematics.integrate_motion"])
        out["kinematics.step.self_s"] = self_s(step)
        out["kinematics.samples"] = int(tag[step].sum())

        for layer in ("monotonicity", "sampling"):
            m = prefix(layer + ".")
            out[f"{layer}.calls"] = int(m.sum())
            out[f"{layer}.self_s"] = self_s(m)

        suite = mask(["verify.run_suite"])
        for k, name in enumerate(self._suites):
            out[f"verify.{name}_s"] = float(dur[suite & (tag == k)].sum())
        out["cli.self_s"] = self_s(mask(["cli.main"]))
        return out
