"""Resource-bounded LOCC circuit simulation and certification of
computational entanglement bounds.

The package provides a dense kernel for matrices on qubits
(:mod:`compent.linalg`), states split into qubit registers and entropy
functionals (:mod:`compent.states`), a round-structured circuit model of
LOCC channels with gate-count accounting (:mod:`compent.circuits`),
distillation and dilution error functionals with witness certificates
(:mod:`compent.measures`), separated unitary packings
(:mod:`compent.packing`), and one executable check per structural theorem
(:mod:`compent.harness`).  The ``compent`` command line wraps the suites.
"""

from .circuits import (
    Gate,
    GateBudget,
    apply,
    bbpssw_round,
    gate_count,
    teleport_dilution,
    unrotate_distillation,
)
from .harness import run_suites
from .measures import p_err_distill
from .packing import (
    counting_ratio_log,
    epr_overlap,
    frobenius_distance,
    greedy_packing,
    net_cardinality_bounds,
    pauli_orbit,
    separation_check,
)
from .states import (
    binary_mixture_entropy,
    epr_pairs,
    fidelity,
    g2,
    h_star,
    mixture,
    rotated_epr,
    squashed_trivial_upper,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"
