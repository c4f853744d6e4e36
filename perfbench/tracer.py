"""Span tracer for the per-layer metrics.

The tracer wraps nhchain's public functions from outside the package.  Most
modules import names directly (``from .spectral import solve_steady_state``),
so a wrapper is installed at every place a caller looks the name up: each
attribute of an ``nhchain`` module that holds the original function.  The
Krylov propagator reaches ``scipy.linalg.expm`` through the module attribute
``nhchain.spectral.la``, so that one is patched on ``scipy.linalg`` itself.

Spans are kept in memory for one sweep at a time and reduced to per-layer
counts and self times (a span's duration minus the time covered by its
direct children) by ``layer_metrics``.
"""

import functools
import inspect
import sys
import time
from collections import Counter

# span group -> (module, attribute) lookups of the functions it covers
GROUPS = {
    "hamiltonian.build": [
        ("nhchain.hamiltonian", name) for name in ("build_total", "build_h0", "build_h1")
    ],
    "operators.embed": [
        ("nhchain.operators", name) for name in ("embed", "embed_pair", "op_sum", "op_add")
    ],
    "kernels.matvec": [("nhchain.operators", "coo_matvec")],
    "spectral.dense": [
        ("nhchain.spectral", name)
        for name in ("dense_eigenvalues", "steady_state_dense", "dense_spectrum")
    ],
    "spectral.solve": [("nhchain.spectral", "solve_steady_state")],
    "spectral.krylov": [("nhchain.spectral", "steady_state_krylov")],
    "spectral.evolve": [("nhchain.spectral", "evolve")],
    "spectral.expm": [("nhchain.spectral", "la.expm")],
    "observables.profile": [
        ("nhchain.observables", name) for name in ("correlation_profile", "site_magnetizations")
    ],
    "qfi.estimate": [("nhchain.qfi", "qfi_fidelity")],
    "critical.gap": [("nhchain.critical", "gap_at")],
    "critical.bisect": [("nhchain.critical", name) for name in ("find_ep_J", "ep_curve")],
}

# bytes one COO matvec touches, computed from its sizes: per nonzero the row
# and column indices (int64), the value and the gathered input (complex128);
# per row the output written (complex128); cache reuse is ignored
MATVEC_BYTES_PER_NNZ = 8 + 8 + 16 + 16
MATVEC_BYTES_PER_ROW = 16


def matvec_bytes(nnz: int, dim: int) -> int:
    return nnz * MATVEC_BYTES_PER_NNZ + dim * MATVEC_BYTES_PER_ROW


def _matvec_extra(fn, args, kwargs, result):
    rows, v = args[0], args[3]
    return matvec_bytes(rows.size, v.shape[0])


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _retry_extra(fn, args, kwargs, result):
    # qfi_numeric retries once at delta/4 when the Richardson check fails
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(result.step < bound.arguments["delta"])


def _ep_points_extra(fn, args, kwargs, result):
    # find_ep_J locates one boundary point, ep_curve one per grid value
    points = getattr(result, "points", None)
    return 1 if points is None else len(points)


EXTRAS = {
    "kernels.matvec": _matvec_extra,
    "qfi.estimate": _retry_extra,
    "critical.bisect": _ep_points_extra,
}


def _resolve(module_name: str, dotted: str):
    owner = sys.modules[module_name]
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs span-recording wrappers; records only between start and stop."""

    def __init__(self):
        self.spans: list[list] = []  # [group, start_ns, end_ns, parent, extra]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._active = False

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "nhchain" or name.startswith("nhchain."))
        ]
        for group, targets in GROUPS.items():
            for module_name, dotted in targets:
                try:
                    owner, name = _resolve(module_name, dotted)
                    original = getattr(owner, name)
                except (KeyError, AttributeError):
                    self.missing.append(f"{module_name}.{dotted}")
                    continue
                wrapper = self._wrap(group, original)
                self._patch(owner, name, wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def start(self) -> None:
        self.spans = []
        self._stack = []
        self._active = True

    def stop(self) -> list[list]:
        self._active = False
        return self.spans

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, group, fn):
        extra = EXTRAS.get(group)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            stack = self._stack
            span = [group, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                span[4] = extra(fn, args, kwargs, result)
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (ms) of one traced sweep.

    ``*_calls`` count entries into a group from outside it, so the nested
    ``build_h0``/``build_h1`` of a ``build_total`` count once.
    """
    child_ns = [0] * len(spans)
    for group, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns, extra, nested = Counter(), Counter(), Counter(), Counter()
    for i, (group, start, end, parent, value) in enumerate(spans):
        self_ns[group] += end - start - child_ns[i]
        extra[group] += value
        ancestors = set()
        while parent >= 0:
            ancestors.add(spans[parent][0])
            parent = spans[parent][3]
        if group not in ancestors:
            calls[group] += 1
        for ancestor in ancestors:
            nested[group, ancestor] += 1

    def ms(group):
        return self_ns[group] / 1e6

    solves = calls["spectral.krylov"]
    estimates = calls["qfi.estimate"]
    return {
        "hamiltonian.build_calls": calls["hamiltonian.build"],
        "hamiltonian.build_ms": ms("hamiltonian.build"),
        "operators.embed_calls": calls["operators.embed"],
        "operators.embed_ms": ms("operators.embed"),
        "kernels.matvec_calls": calls["kernels.matvec"],
        "kernels.matvec_ms": ms("kernels.matvec"),
        "kernels.matvec_bytes_computed": extra["kernels.matvec"],
        "kernels.matvec_gbps_computed": _ratio(
            extra["kernels.matvec"], self_ns["kernels.matvec"]
        ),
        "spectral.dense_calls": calls["spectral.dense"],
        "spectral.dense_ms": ms("spectral.dense"),
        "spectral.krylov_solves": solves,
        "spectral.krylov_ms": ms("spectral.krylov"),
        "spectral.evolve_calls": calls["spectral.evolve"],
        "spectral.evolve_ms": ms("spectral.evolve"),
        "spectral.matvecs_per_solve": _ratio(
            nested["kernels.matvec", "spectral.krylov"], solves
        ),
        "spectral.expm_calls": calls["spectral.expm"],
        "spectral.expm_ms": ms("spectral.expm"),
        "observables.profile_calls": calls["observables.profile"],
        "observables.profile_ms": ms("observables.profile"),
        "qfi.estimates": estimates,
        "qfi.solves_per_estimate": _ratio(
            nested["spectral.solve", "qfi.estimate"], estimates
        ),
        "qfi.retry_frac": _ratio(extra["qfi.estimate"], estimates),
        "qfi.estimate_ms": ms("qfi.estimate"),
        "critical.gap_evals": calls["critical.gap"],
        "critical.gap_evals_per_ep": _ratio(
            nested["critical.gap", "critical.bisect"], extra["critical.bisect"]
        ),
        "critical.gap_ms": ms("critical.gap"),
        "critical.bisect_ms": ms("critical.bisect"),
    }
