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
    ChannelFamily,
    Gate,
    GateBudget,
    KeyedChannelFamily,
    LoccCircuit,
    Round,
    apply,
    bbpssw_round,
    bob_unitary_circuit,
    circuit_from_dict,
    circuit_to_dict,
    compose,
    conjugate_by_local_unitary,
    gate_count,
    identity_circuit,
    is_efficient,
    local_layer_unitary,
    local_unitary_circuit,
    stock_channel_zoo,
    teleport_dilution,
    tensor,
    unrotate_distillation,
)
from .harness import (
    CheckRecord,
    check_concavity_dilution,
    check_convexity_distillation,
    check_locc_monotonicity_cost,
    check_locc_monotonicity_distillation,
    check_lu_invariance_cost,
    check_lu_invariance_distillation,
    check_subadditivity_cost,
    check_superadditivity_distillation,
    run_keyed_suite,
    run_noninvariance_counterexample,
    run_suites,
)
from .linalg import (
    QUBIT_CAP,
    SizeLimitError,
    eig_hermitian,
    haar_unitary,
    marginal,
    psd_sqrt,
    schatten_norm,
    tensor_product,
)
from .measures import (
    DilutionCertificate,
    DistillationCertificate,
    counterexample_eta_threshold,
    distillable_upper_via_squashed,
    p_err_dilute,
    p_err_distill,
    verify_dilution_certificate,
    verify_distillation_certificate,
)
from .packing import (
    UnitaryPacking,
    counting_ratio_log,
    epr_overlap,
    frobenius_distance,
    greedy_packing,
    net_cardinality_bounds,
    packing_from_dict,
    packing_to_dict,
    pauli_orbit,
    separation_check,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    KeyedStateFamily,
    StateFamily,
    binary_mixture_entropy,
    bipartite_from_matrix,
    bipartite_pure,
    conditional_mutual_information,
    conjugate_local,
    epr_pairs,
    fidelity,
    g2,
    h_star,
    mixture,
    pauli_shift,
    rotated_epr,
    squashed_trivial_upper,
    state_from_dict,
    state_to_dict,
    tensor_states,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"
