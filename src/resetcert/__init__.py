"""Frequency-domain stability certification for reset control systems.

Certifies global uniform asymptotic stability and the bounded-input
bounded-state property of closed loops containing a resetting element
(Clegg integrator, first- or second-order generalized reset elements)
directly from frequency-response data, and cross-validates the verdicts
with an SPR oracle and a hybrid time-domain simulator.
"""

import importlib

from . import elements, errors, frf, hbeta, lti, nsv
from .elements import ResetElement, base_tf, clegg, gfore, gsore as gsore_element, jump_map_test, pci, realization, sosre
from .frf import FrfTable, LoopSamples, compose_loop, interpolate, load_frf, save_frf
from .hbeta import HbetaCandidate, search_candidate_scalar, spr_check_matrix, spr_check_scalar
from .lti import ClosedLoop, RationalTF, StateSpace, assemble_closed_loop, base_linear_stability, evaluate, minimality_check, relative_degree, series, tf, to_state_space
from .nsv import Nsv, TypeVerdict, certify_first_order, classify, compute_nsv

__version__ = "0.1.0"

# gsore needs scipy.optimize; it is imported on first use so that the
# first-order certifiers, the oracle, the simulator and the CLI commands
# other than gsore-check start without scipy.  sim is imported on first use
# too, so that only simulation runs load it.
_LAZY_EXPORTS = {
    "gsore": frozenset(("CertificateResult", "GsoreProblem", "certify", "gamma_factor")),
    "sim": frozenset(("SimConfig", "SimTrace", "simulate")),
}


def __getattr__(name):
    for module_name, exports in _LAZY_EXPORTS.items():
        if name == module_name or name in exports:
            module = importlib.import_module(f".{module_name}", __name__)
            return module if name == module_name else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
