"""Classical self-testing of quantum gate families.

Exact channel algebra on Choi matrices, the defining experimental equations of
the standard gate families, a simulated measurement oracle, a Hoeffding-planned
sampling self-tester, and a robustness laboratory that stress-tests the proven
violation-to-distance bounds.
"""

__version__ = "0.1.0"

from .angles import Angle, parse_angle
from .bloch import BlochAffine, affine_of_channel, from_bloch, rotation_unitary, to_bloch
from .channel import (
    Channel,
    NoiseModel,
    apply_noise,
    cnot,
    compose,
    from_kraus,
    from_unitary,
    gate_from_spec,
    hadamard,
    identity,
    measurement,
    not_gate,
    phase_gate,
    power,
    rank_one_sample_max,
    rotation_gate,
    standard_gate,
    sup_norm_report,
    tensor_channels,
    transpose_map,
)
from .equations import (
    Embedding,
    EquationSet,
    ExperimentalEquation,
    Step,
    max_violation,
    n_alpha,
    probability_term,
    z_k,
)
from .families import (
    Family,
    FamilyFit,
    HADAMARD_ROBUSTNESS_COEFF,
    dist_to_family,
    family_equations,
    h_cnot_family,
    h_not_family,
    h_phase_family,
    hadamard_family,
    member_gates,
    rotation_family,
    triple_family,
)
from .oracle import Oracle
from .qstate import (
    DensityMatrix,
    NumericsError,
    epr_decomposition_residual,
    epr_state,
    measure_prob,
    random_density_matrix,
    rho_of,
    tensor,
    trace_norm,
    zeta,
    zeta_states,
)
from .roblab import (
    ChainProbeReport,
    ExponentFit,
    ScanRecord,
    check_six_state_identity_bound,
    check_two_axis_identity_bound,
    fit_exponent,
    hadamard_robustness_probe,
    noise_scan,
    scan_csv_text,
)
from .tester import (
    TesterPlan,
    TesterVerdict,
    plan_samples,
    round_constant,
    run_tester,
    violation_bound_from_distance,
)
