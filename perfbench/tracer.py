"""Outside-in layer trace: wraps public fraclat functions from the
benchmark's side, without editing the package.

Every wrapped function records calls, total time and self time (total time
minus the time of wrapped callees).  Count hooks add work counters at the
same boundaries.  The time spent in the hooks themselves is taken out of
every enclosing span, so a counter does not inflate its caller's self time.

A function is patched in every ``fraclat`` namespace that binds it (for
example ``fraclat.cli.spectrum`` as well as ``fraclat.spectral.spectrum``),
so calls made through ``from .x import f`` bindings are seen too.  Code
outside the package must call through module attributes for the same
reason.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MARK = "__perfbench_original__"


# -- count hooks ---------------------------------------------------------------------
# A hook gets (state, args, kwargs, result, counts); ``state`` is what the
# optional ``before`` hook returned.


def _vertices(state, args, kwargs, lat, counts):
    counts["structure.vertices"] += lat.num_vertices


def _assemble(state, args, kwargs, op, counts):
    spec, lat = args[1], args[2]
    counts["operator.cells"] += spec.N**lat.n
    counts["operator.nnz"] += len(op.entries)


def _not_densified(args, kwargs):
    return "A" not in args[0]._cache


def _dense_bytes(was_new, args, kwargs, A, counts):
    if was_new:
        counts["operator.dense_bytes"] += 8 * A.shape[0] ** 2


def _eigh_flops(state, args, kwargs, eig, counts):
    # symmetric QR with eigenvectors, about 9 n^3 flops (Golub-Van Loan)
    counts["spectral.eigh_flops"] += 9 * eig.size**3


def _atom_visits(state, args, kwargs, result, counts):
    counts["spectral.cdf.atom_visits"] += len(args[0].atoms)


def _interior_dim(state, args, kwargs, result, counts):
    Q, subset = args[0], args[1]
    counts["schur.interior_dim"] += Q.shape[0] - len(set(int(i) for i in subset))


def _gr_pairs(state, args, kwargs, result, counts):
    X, Y = args[0], args[1]
    counts["grassmann.gr_mul.pairs"] += len(X.coeffs) * len(Y.coeffs)
    if X.coeffs and Y.coeffs:
        a = np.array(list(X.coeffs), dtype=np.int64)
        b = np.array(list(Y.coeffs), dtype=np.int64)
        disjoint = ((a[:, None, 0] & b[None, :, 0]) == 0) & ((a[:, None, 1] & b[None, :, 1]) == 0)
        counts["grassmann.gr_mul.disjoint_pairs"] += int(disjoint.sum())


def _green(state, args, kwargs, est, counts):
    counts["renorm.green.iterations"] += est.iterations
    counts["renorm.green.hit_zero"] += int(est.hit_zero)


def _max_degree(degrees, counts):
    counts["dynamics.max_degree"] = max(counts["dynamics.max_degree"], *degrees)


def _compose_degree(state, args, kwargs, f, counts):
    _max_degree([f.degree], counts)


def _reduce_degrees(state, args, kwargs, result, counts):
    _max_degree(result[1], counts)


def _bidegrees(state, args, kwargs, mats, counts):
    _max_degree([d for m in mats for row in m.entries for d in row], counts)


def _rhat_degrees(state, args, kwargs, steps, counts):
    _max_degree([d for _, d in steps], counts)


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    qualname: str  # attribute path inside the module, e.g. "AtomicMeasure.cdf"
    after: Callable | None = None
    before: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


TARGETS = (
    Target("structure", "fraclat.structure", "build_level", _vertices),
    Target("structure", "fraclat.structure", "validate_structure"),
    Target("operator", "fraclat.operator", "assemble", _assemble),
    Target("operator", "fraclat.operator", "LevelOperator.matrix_float", _dense_bytes, _not_densified),
    Target("spectral", "fraclat.spectral", "spectrum", _eigh_flops),
    Target("spectral", "fraclat.spectral", "nd_spectrum"),
    Target("spectral", "fraclat.spectral", "nd_nullity"),
    Target("spectral", "fraclat.spectral", "counting_measure"),
    Target("spectral", "fraclat.spectral", "AtomicMeasure.cdf", _atom_visits),
    Target("schur", "fraclat.schur", "trace_on_subset", _interior_dim),
    Target("grassmann", "fraclat.grassmann", "gr_mul", _gr_pairs),
    Target("grassmann", "fraclat.grassmann", "scale_degree"),
    Target("grassmann", "fraclat.grassmann", "relabel"),
    Target("grassmann", "fraclat.grassmann", "restrict"),
    Target("grassmann", "fraclat.grassmann", "exp_q"),
    Target("grassmann", "fraclat.grassmann", "norm"),
    Target("grassmann", "fraclat.grassmann", "_newton_coeffs"),
    Target("renorm", "fraclat.renorm", "r_map"),
    Target("renorm", "fraclat.renorm", "green_estimate", _green),
    Target("renorm", "fraclat.renorm", "dirichlet_poly"),
    Target("renorm", "fraclat.renorm", "neumann_poly"),
    Target("renorm", "fraclat.renorm", "t_map"),
    Target("renorm", "fraclat.renorm", "level_matrix"),
    Target("renorm", "fraclat.renorm", "RenormContext.c_constant"),
    Target("dynamics", "fraclat.dynamics", "RationalMap1D.compose", _compose_degree),
    Target("dynamics", "fraclat.dynamics", "compose_reduce_1d", _reduce_degrees),
    Target("dynamics", "fraclat.dynamics", "bidegree_sequence", _bidegrees),
    Target("dynamics", "fraclat.dynamics", "interval_rhat_iterate_symbolic", _rhat_degrees),
    Target("cli", "fraclat.cli", "run"),
)
WRITE = "cli.write"  # the closure returned by fraclat.cli._writer
LAYERS = ("structure", "operator", "spectral", "schur", "grassmann", "renorm", "dynamics", "cli")

COUNTS = {  # counter name -> unit
    "structure.vertices": "count",
    "operator.cells": "count",
    "operator.nnz": "count",
    "operator.dense_bytes": "B_computed",
    "spectral.eigh_flops": "flop_computed",
    "spectral.cdf.atom_visits": "count",
    "schur.interior_dim": "count",
    "grassmann.gr_mul.pairs": "count",
    "grassmann.gr_mul.useful_ratio": "ratio",
    "renorm.green.iterations": "count",
    "renorm.green.hit_zero": "count",
    "dynamics.max_degree": "degree",
    "cli.bytes_out": "B",
}


def _namespaces() -> list:
    """Every fraclat module and every class those modules bind, once each."""
    mods = [m for name, m in sorted(sys.modules.items()) if name == "fraclat" or name.startswith("fraclat.")]
    classes = {id(v): v for m in mods for v in vars(m).values() if isinstance(v, type)}
    return mods + list(classes.values())


def _resolve(target: Target):
    """(owner, attribute) of the defining binding."""
    owner = sys.modules[target.module]
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.stats = {t.name: [0, 0.0, 0.0] for t in TARGETS}
        self.stats[WRITE] = [0, 0.0, 0.0]
        self.counts: dict = defaultdict(float)
        self.active = False  # spans are recorded only while a job runs
        self.hook_seconds = 0.0  # time spent in count hooks, outside every span
        self._stack: list[list[float]] = []  # per open span: [callee time, hidden time]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            owner, attr = _resolve(t)
            original = owner.__dict__[attr]
            self._patch_everywhere(original, self._wrap(t.name, original, t.before, t.after))
        writer = sys.modules["fraclat.cli"]._writer

        def traced_writer(*args, **kwargs):
            return self._wrap(WRITE, writer(*args, **kwargs))

        setattr(traced_writer, MARK, writer)
        self._patch_everywhere(writer, traced_writer)

    def _patch_everywhere(self, original, wrapper) -> None:
        hit = False
        for owner in _namespaces():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    hit = True
        if not hit:
            raise RuntimeError(f"{original!r} is not bound in any fraclat namespace")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_pristine()

    # -- spans ----------------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stats, stack, counts = self.stats[name], self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_pre = perf_counter()
            state = before(args, kwargs) if before else None
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                total = t1 - t0 - frame[1]
                stats[0] += 1
                stats[1] += total
                stats[2] += total - frame[0]
                if stack:
                    stack[-1][0] += total
                    stack[-1][1] += frame[1]
            if after:
                after(state, args, kwargs, result, counts)
            hook = (t0 - t_pre) + (perf_counter() - t1)
            tracer.hook_seconds += hook
            if stack:
                stack[-1][1] += hook
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(traced, MARK, fn)
        return traced

    # -- report -----------------------------------------------------------------------

    def metrics(self, job_seconds: float) -> dict:
        """Per-function calls/total/self, counters and layer self-time shares."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        counts = dict(self.counts)
        pairs = counts.get("grassmann.gr_mul.pairs", 0)
        counts["grassmann.gr_mul.useful_ratio"] = (
            counts.get("grassmann.gr_mul.disjoint_pairs", 0) / pairs if pairs else 0.0
        )
        for name, unit in COUNTS.items():
            out[name] = (counts.get(name, 0), unit)
        for layer, share in self.layer_shares(job_seconds).items():
            out[f"layer.{layer}.self_share"] = (share, "ratio")
        return out

    def layer_shares(self, job_seconds: float) -> dict:
        """Self time of each layer over the traced job time, counting out
        the time the count hooks took."""
        base = job_seconds - self.hook_seconds
        shares = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            shares[name.split(".", 1)[0]] += self_s / base if base > 0 else 0.0
        return shares


def assert_pristine() -> None:
    """Raise if any fraclat namespace still holds a tracer wrapper."""
    for owner in _namespaces():
        for attr, value in vars(owner).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{attr} is still traced")
