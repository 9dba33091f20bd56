"""Bi-coordinate descent solvers for minimization over a box intersected
with one linear equality, with conditional-gradient and most-violating-pair
baselines, optimality diagnostics, and reductions for three applications."""

from .problem import (
    BoxBounds,
    GeometricSchedule,
    InfeasibleProblemError,
    LinearEquality,
    ProblemError,
    ProblemInstance,
    SignMap,
    Stage,
    StageProvider,
    build_problem,
)
from .objectives import (
    DomainError,
    LinearObjective,
    Objective,
    PairState,
    PortfolioObjective,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SvmDualObjective,
)
from .smoothing import smooth_abs_sqrt, smooth_plus
from .geometry import FeasibilityReport, check_feasibility, minimize_linear, project
from .diagnostics import (
    InfeasiblePointError,
    StationarityReport,
    TRACE_COLUMNS,
    TraceAudit,
    audit_trace,
    check_stationarity,
    error_bound,
    write_trace_csv,
)
from .solvers import (
    METHODS,
    LinesearchError,
    LinesearchRule,
    PairSelection,
    SolveResult,
    SolverConfig,
    TraceEvent,
    armijo_linesearch,
    bcv_solve,
    cgm_solve,
    mbc_solve,
    select_pair,
    solve,
)
from .applications import (
    MarketEquilibriumReport,
    MarketModel,
    PortfolioData,
    SvmDataset,
    build_market,
    build_portfolio,
    build_svm_dual,
    load_market_json,
    load_svm_csv,
    market_from_document,
    split_market_point,
    svm_cap_binding,
    svm_primal,
    verify_market_equilibrium,
)
from .generators import (
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    interaction_matrix,
    protocol_start,
)
from .benchmark import (
    BenchmarkCell,
    BenchmarkReport,
    BenchmarkSpec,
    CellRun,
    render_csv,
    render_markdown,
    run_benchmark,
    run_cell_detailed,
)
from .reference import REFERENCE, ReferenceCell, reference_cell
from .serialization import from_document, load_problem, save_problem, to_document

__version__ = "0.1.0"
