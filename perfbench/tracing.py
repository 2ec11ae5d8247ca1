"""Spans around calls into tmnet, installed from outside the package.

Every public function of the eight tmnet modules (and the public methods of
TaylorMap and PolynomialODE) is replaced, at every name that binds it, by a
wrapper that records one span: name, start, end and the enclosing span.
Binding sites matter: ``systems`` imports ``reference_trajectory`` by name and
``TaylorMap.__call__`` aliases ``apply``, so patching only the defining module
would miss those calls.

Spans stay in memory (four flat arrays) until the caller asks for a summary;
a module's self time is the time its spans cover minus the time their direct
child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from array import array

import numpy as np

MODULES = ("basis", "maps", "ode", "network", "systems", "lattice", "io", "cli")

# Helpers far cheaper than a span; their time stays in the caller's self time.
UNWRAPPED = {"basis.basis_size", "io.component_names"}

# Public methods on the hot paths, with their span names.  Both right-hand
# sides the reference integrator calls (PolynomialODE.rhs and the damped
# pendulum callable) are reported as ode.rhs.
METHODS = {
    "maps": {
        "TaylorMap": {
            "apply": "maps.TaylorMap.apply",
            "jacobian": "maps.TaylorMap.jacobian",
            "weight_gradients": "maps.TaylorMap.weight_gradients",
        }
    },
    "ode": {"PolynomialODE": {"rhs": "ode.rhs"}},
}

# Span names whose per-layer `.calls` and `.s` metrics the benchmark reports.
REPORTED = (
    "basis.map_powers",
    "basis.kron_power",
    "basis.kron_power_jacobian",
    "ode.weight_flow_rhs",
    "ode.ode_to_map",
    "ode.reference_trajectory",
    "ode.rhs",
    "systems.synthesize",
    "maps.TaylorMap.apply",
    "maps.TaylorMap.jacobian",
    "maps.compose",
    "maps.symplectic_penalty",
    "maps.symplectic_penalty_gradient",
    "network.train_one_shot",
    "network.backward",
    "network.forward",
    "lattice.build_fodo_ring",
    "lattice.perturb_element",
    "lattice.fine_tune",
    "lattice.linear_tunes",
    "lattice.multi_turn",
    "lattice.estimate_tunes",
    "cli.main",
)


def _flow_key(system, cfg) -> str:
    digest = hashlib.sha256(repr((cfg.dt, cfg.substeps)).encode())
    for c in system.coeffs:
        digest.update(np.ascontiguousarray(c).tobytes())
    return digest.hexdigest()


class Tracer:
    """Installs span wrappers into tmnet and aggregates what they record."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.flows: list[str] = []
        self.substeps = 0
        self.slots = 0
        self.epochs = 0

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("tmnet")
        mods = {m: importlib.import_module(f"tmnet.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, fn in vars(mod).items():
                span = f"{mname}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and span not in UNWRAPPED
                ):
                    wrapped[id(fn)] = self._wrap(span, fn)
            for cname, methods in METHODS.get(mname, {}).items():
                cls = getattr(mod, cname)
                for meth, span in methods.items():
                    fn = vars(cls).get(meth)
                    if fn is not None:
                        wrapped[id(fn)] = self._wrap(span, fn)
                for attr, fn in list(vars(cls).items()):
                    if id(fn) in wrapped:
                        self._patch(cls, attr, wrapped[id(fn)])
        for ns in (pkg, *mods.values()):
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._patch(ns, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        stack = self._stack
        clock = self.clock
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(idx)
            if hook is not None:
                hook(*args, **kwargs)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if span == "systems.damped_pendulum_rhs":
                # the non-polynomial right-hand side the oracle calls
                return self._wrap("ode.rhs", result)
            return result

        return wrapper

    # --- counters recorded at the layer boundaries -------------------------

    def _on_ode_ode_to_map(self, system, cfg, *args, **kwargs):
        self.flows.append(_flow_key(system, cfg))
        # the substep count as the caller fixes it; a count the integrator
        # chooses itself is not seen here (README.md, per-layer metrics)
        if isinstance(cfg.substeps, int):
            self.substeps += cfg.substeps

    def _on_network_backward(self, net, *args, **kwargs):
        self.slots += net.n_layers

    def _on_network_train_one_shot(self, net, X0, obs, cfg, *args, **kwargs):
        self.epochs += int(cfg.epochs)

    # --- aggregation ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, total_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        module = np.array([MODULES.index(s.split(".")[0]) for s in self.names])
        span_module = module[name]
        self_s = np.bincount(span_module, weights=own, minlength=len(MODULES))
        io = MODULES.index("io")
        parent_module = np.where(nested, span_module[np.maximum(parent, 0)], -1)
        io_top = (span_module == io) & (parent_module != io)

        def get(span: str, table) -> float:
            nid = self._ids.get(span)
            return float(table[nid]) if nid is not None else 0.0

        out: dict[str, float] = {}
        for span in REPORTED:
            out[f"{span}.calls"] = get(span, calls)
            out[f"{span}.s"] = get(span, incl)
        n_flows = len(self.flows)
        out["ode.substeps"] = float(self.substeps)
        out["ode.ode_to_map.repeat_ratio"] = (
            (n_flows - len(set(self.flows))) / n_flows if n_flows else 0.0
        )
        backward_s = out["network.backward.s"]
        out["network.backward.us_per_slot"] = (
            1e6 * backward_s / self.slots if self.slots else 0.0
        )
        train_s = out["network.train_one_shot.s"]
        out["network.epoch_ms"] = 1e3 * train_s / self.epochs if self.epochs else 0.0
        out["io.s"] = float(dur[io_top].sum())
        for i, m in enumerate(MODULES):
            out[f"{m}.self_s"] = float(self_s[i])
        out["traced_total_s"] = total_s
        out["self_share"] = float(self_s.sum()) / total_s if total_s > 0 else 0.0
        return out
