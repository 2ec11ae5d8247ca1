"""The public surface: every exported name resolves, and helpers that were
folded into the batched paths stay deleted."""

import importlib

import pytest

import tmnet

MODULES = ("basis", "maps", "ode", "network", "systems", "lattice", "io", "cli")

# (module, attribute) pairs replaced by map_powers, network.backward,
# symplectic_residual / symplectic_penalty, network._forward_states and the
# stacked training state, and the one Jacobian table in maps
DELETED = (
    ("basis", "kron_power_jacobian"),
    ("basis", "lift_linear"),
    ("basis", "compose_power_truncate"),
    ("maps", "SymplecticResidual"),
    ("lattice", "_boundary_states"),
    ("network", "_stacked_weights"),
    ("basis", "_jacobian_tables"),
)


def test_every_export_resolves():
    assert len(set(tmnet.__all__)) == len(tmnet.__all__)
    for name in tmnet.__all__:
        assert hasattr(tmnet, name), f"tmnet.{name}"
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
