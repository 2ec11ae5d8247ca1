"""The public surface: every exported name resolves, helpers that were
folded into the batched paths stay deleted, and the package runs on numpy
alone."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tmnet
from tmnet import io, maps

MODULES = ("basis", "maps", "ode", "network", "systems", "lattice", "io", "cli")

# (module, attribute) pairs replaced by map_powers, network.backward,
# symplectic_residual / symplectic_penalty, network._forward_states and the
# stacked training state, the one Jacobian table in maps, the one RK4 entry
# point reference_trajectory, observe_one_turn, the compiled symplectic
# residual, the generated oracle substeps, the weight flow compiled on the
# stacked layout, and the generated reverse pass, which needs no Jacobian
# (it retired the adjoint loop and the maps Jacobian table and series; the
# tests keep the table and series as the reference reverse pass); and the
# duplicate objective paths, which backward, _data_gradient,
# _pairwise_gradient and maps._residual_penalty replace; and the exponent-
# tuple lookups that the one monomial table, basis._columns, replaces (the
# product positions live in basis._scatter_matrix); and the weighing of a
# kernel's compile against its runs, which the kernels cached per term
# structure and one size cap (ode._KERNEL_STATEMENTS) replace; and the
# derivation driver, its batches and its own doubling loop, which one ODE
# at a time through the oracle's runner (ode._derivation, ode._run) replaces;
# and the numpy state buffers of the forward pass, which the one generated
# evaluator on floats (maps._chain_function) replaces; and the separate
# reverse pass and the cached one-hot group matrix, which the one training
# pass (network._training_function), bound once per run, replaces
DELETED = (
    ("basis", "kron_power_jacobian"),
    ("basis", "lift_linear"),
    ("basis", "compose_power_truncate"),
    ("maps", "SymplecticResidual"),
    ("lattice", "_boundary_states"),
    ("network", "_stacked_weights"),
    ("basis", "_jacobian_tables"),
    ("ode", "rk4_solve"),
    ("ode", "_trajectory"),
    ("lattice", "one_turn_readings"),
    ("basis", "_series_mul_adjoint"),
    ("maps", "_residual"),
    ("ode", "_term_rhs"),
    ("ode", "weight_flow_rhs"),
    ("ode", "_blocks"),
    ("network", "_adjoint_function"),
    ("maps", "_jacobian_series"),
    ("maps", "_jacobian_table"),
    ("network", "loss"),
    ("network", "_rollout"),
    ("network", "_pairwise_backward"),
    ("maps", "symplectic_penalty_gradient"),
    ("basis", "_position_table"),
    ("basis", "_mult_table"),
    ("ode", "_float_advance"),
    ("ode", "_engine"),
    ("ode", "_LOOP_STATEMENTS"),
    ("ode", "_COMPILE_RUNS"),
    ("ode", "_merged"),
    ("ode", "_ode_to_maps"),
    ("ode", "_derivations"),
    ("ode", "_derived_weights"),
    ("ode", "_doubled_weights"),
    ("ode", "_divergence"),
    ("ode", "_CHECKED"),
    ("network", "_bind_slots"),
    ("network", "_reverse_function"),
    ("network", "_group_onehot"),
)


# settings that had one value in use and became constants, fields the code
# works out from its inputs, the taps the observations already carry, and
# the rows flag of the states-only pass, whose rows the training pass keeps
RETIRED = {
    ("maps", "_chain_function"): ("rows",),
    ("network", "_forward_states"): ("rows",),
    ("network", "Network"): ("dim", "order", "taps"),
    ("network", "TrainConfig"): ("beta1", "epsilon"),
    ("network", "build_shared_chain"): ("taps",),
    ("lattice", "quad_element"): ("order",),
    ("lattice", "drift_element"): ("order",),
    ("lattice", "rotation_element"): ("order",),
    ("lattice", "build_fodo_ring"): ("kf", "kd", "dt", "k2", "monitors"),
    ("io", "write_observations"): ("names",),
    ("io", "write_trajectory"): ("names",),
}


def test_retired_settings_are_gone():
    assert sum(map(len, RETIRED.values())) == 18
    for (module, name), params in RETIRED.items():
        signature = inspect.signature(getattr(importlib.import_module(f"tmnet.{module}"), name))
        assert not set(params) & set(signature.parameters), (module, name)


def test_every_export_resolves():
    assert len(set(tmnet.__all__)) == len(tmnet.__all__)
    for name in tmnet.__all__:
        assert hasattr(tmnet, name), f"tmnet.{name}"
        assert not isinstance(getattr(tmnet, name), types.ModuleType), f"tmnet.{name}"
    for m in MODULES:
        mod = importlib.import_module(f"tmnet.{m}")
        exported = getattr(mod, "__all__", ())
        assert len(set(exported)) == len(exported), m
        for name in exported:
            assert hasattr(mod, name), f"tmnet.{m}.{name}"


@pytest.mark.parametrize("module, name", DELETED)
def test_deleted_names_are_gone(module, name):
    mod = importlib.import_module(f"tmnet.{module}")
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", ())
    assert not hasattr(tmnet, name) and name not in tmnet.__all__


def test_taylor_map_has_no_per_state_derivatives():
    for name in ("jacobian", "weight_gradients"):
        assert not hasattr(tmnet.TaylorMap, name)


def test_turn_series_has_no_per_plane_readers():
    for name in ("x", "y"):
        assert not hasattr(tmnet.TurnSeries, name)


# imports every module with the test-only dependencies blocked, then runs
# `tmnet check` on the identity map saved at argv[1], writing argv[2]
NUMPY_ONLY = """
import importlib, pkgutil, sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
import tmnet
for m in pkgutil.iter_modules(tmnet.__path__):
    importlib.import_module("tmnet." + m.name)
from tmnet import cli
sys.exit(cli.main(["check", "--map", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_runtime_needs_numpy_only(tmp_path):
    ident, report = tmp_path / "ident.json", tmp_path / "report.json"
    io.save_map(maps.identity_map(2, 2), ident)
    src = str(Path(tmnet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(ident), str(report)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(report.read_text())["penalty"] == 0.0
