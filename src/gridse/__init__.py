"""State estimation, bad-data detection, and stealth attack analysis for
small per-unit power networks."""

from .attack import (
    ProtectionReport,
    apply_attack,
    constrained_stealth_attack,
    craft_stealth_attack,
    protection_check,
    random_stealth_attack,
    verify_stealth,
)
from .baddata import (
    DetectionResult,
    DetectorConfig,
    chi_square_test,
    largest_normalized_residual,
    norm_threshold_test,
    residual,
    run_detector,
)
from .errors import (
    DanglingReference,
    DimensionMismatch,
    DisconnectedNetwork,
    GridError,
    InputError,
    InvalidArgument,
    LengthMismatch,
    MalformedDocument,
    MissingMagnitudes,
    MultipleReferenceBuses,
    NoRedundancy,
    NoReferenceBus,
    NumericalError,
    NumericallySingularOmega,
    UnobservableNetwork,
    UnsupportedKindForDC,
    ZeroReactance,
)
from .estimation import (
    EstimationResult,
    GainFactor,
    estimate_ac,
    estimate_dc,
    factor_gain,
    weighted_objective,
    weights_from_config,
)
from .measurement import (
    MeterModel,
    StateVector,
    ac_jacobian,
    build_meter_model,
    dc_jacobian,
    flat_state,
    free_vector,
    h_eval_ac,
    simulate_measurements,
    state_dimension,
    state_from_free,
)
from .network import (
    AdmittanceMatrix,
    Branch,
    Bus,
    MeasurementConfig,
    MeasurementSpec,
    NetworkModel,
    ObservabilityReport,
    ParsedCase,
    build_admittance,
    check_observability,
    parse_case,
    serialize_case,
)
from .scenarios import (
    MonteCarloStats,
    Scenario,
    ScenarioReport,
    emit_report,
    load_scenario,
    run_monte_carlo,
    run_scenario,
)

__version__ = "0.1.0"
