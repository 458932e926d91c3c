"""Matrix-free estimation of tr(f(A)) by stochastic Lanczos quadrature with
computable a-posteriori error certificates."""

__version__ = "0.1.0"

from .errors import (
    CalibrationFailedError,
    ContractViolationError,
    NumericalFailureError,
    PivotBreakdownError,
    PoleEvaluationError,
    QuadratureDomainError,
    UnreachableAccuracyError,
    UnsupportedParameterError,
)
from .operators import (
    DenseOperator,
    Laplacian2D,
    LinearOperator,
    MaternOperator,
    PreconditionedMatern,
    build_matern_operator,
    matern_kernel,
    pivoted_cholesky,
    sample_sites,
)
from .lanczos import (
    BasisBuffer,
    LanczosState,
    SymTridiagonal,
    TridiagEigen,
    gauss_quadrature,
    lanczos_run,
    lanczos_step,
    lanczos_steps,
    quadrature_value,
    tridiag_eigen,
)
from .rational import (
    KINDS,
    RationalApproximant,
    build,
    choose_K,
    evaluate,
    kind_function,
    uniform_error,
)
from .error_estimator import (
    ErrorMonitor,
    cumulative_error,
    lookback_check,
)
from .trace_estimator import (
    SampleRecord,
    TraceEstimate,
    calibrate_delta,
    confidence_half_width,
    estimate_spectrum_interval,
    estimate_trace,
    estimate_trace_with,
    p_alpha,
    rademacher_vector,
    sample_bilinear,
)
from . import oracles
