"""Polynomial Taylor-map models of dynamical systems.

Core pieces:

* monomial bases and truncated polynomial algebra (``tmnet.basis``)
* Taylor maps, composition and symplectic penalties (``tmnet.maps``)
* map derivation from polynomial ODEs and reference integration (``tmnet.ode``)
* chained-map networks trained from a single trajectory (``tmnet.network``)
* example dynamical systems and data synthesis (``tmnet.systems``)
* ring lattices, multi-turn tracking and tune estimation (``tmnet.lattice``)
* file formats and the ``tmnet`` command line (``tmnet.io``, ``tmnet.cli``)
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .basis import (
    basis_size,
    kron_power,
    position,
)
from .maps import (
    TaylorMap,
    compose,
    identity_map,
    symplectic_penalty,
    symplectic_penalty_gradient,
    symplectic_residual,
)
from .ode import (
    FlowConfig,
    FlowDivergenceError,
    PolynomialODE,
    ode_to_map,
    reference_trajectory,
)
from .network import (
    LossReport,
    Network,
    ObservationSeries,
    TrainConfig,
    TrainingDivergedError,
    build_shared_chain,
    forward,
    predict_trajectory,
    train_one_shot,
)
from .systems import (
    SYSTEMS,
    NoiseSpec,
    synthesize,
)
from .lattice import (
    Lattice,
    LatticeElement,
    TuneEstimate,
    TurnSeries,
    build_fodo_ring,
    estimate_tune,
    estimate_tunes,
    fine_tune,
    linear_tunes,
    multi_turn,
    observe_one_turn,
    one_turn_map,
    perturb_element,
)

# every name imported above, and the version; the submodules that the imports
# bind as package attributes are not exports
__all__ = ["__version__"] + [name for name, value in list(globals().items())
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
