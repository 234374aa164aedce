"""Simulator and verification harness for sampling-and-query access to
distributed matrices and vectors, with exact communication-bit accounting.

Layers, bottom up:

* ``sq_access``     - centralized SQ primitives, the one rejection loop and the
                      one norm estimator behind oversampled access
* ``linalg_oracle`` - exact linear-algebra reference routines
* ``comm_sim``      - coordinator/player protocol simulation with a metered,
                      replayable transcript
* ``reductions``    - constructions turning communication problems into
                      SQ-solvable linear-algebra instances
* ``harness``       - config-driven experiments, statistics, reports
* ``verify``        - named suites over the experiment registry
* ``cli``           - ``sqcomm run | verify | fit-bits``
"""

from .sq_access import (
    AllZero,
    IndexOutOfRange,
    RejectionSample,
    SqMatrix,
    SqVector,
    Timeout,
    build_sq_matrix,
    build_sq_vector,
    exact_distribution,
    rejection_round_cap,
    sq_query,
    sq_row,
    sq_sample,
    sq_sample_at,
    sq_sample_many,
)
from .linalg_oracle import (
    BadDimension,
    ConditionUndefined,
    GammaUndefined,
    NotHermitian,
    ProblemParams,
    SvdFactors,
    TopSingular,
    dsp_distribution,
    expm_apply,
    expm_hermitian,
    hadamard_apply,
    params,
    pinv_solve,
    pseudoinverse,
    svd_factors,
    threshold_svd,
    top_singular,
)
from .comm_sim import (
    PUBLIC,
    AlreadySetup,
    Annotation,
    BitMeter,
    Cancellation,
    DimensionMismatch,
    EncodingSpec,
    Message,
    MeterReport,
    NoPlayerData,
    NotSetup,
    Session,
    assemble_stacked,
    coord_a_access,
    coord_a_setup,
    coord_b_query,
    coord_b_sample,
    coord_b_setup,
    lincomb_a_access,
    lincomb_a_phi,
    lincomb_b_access,
    lincomb_b_phi,
    make_replay_session,
    meter_report,
    open_session,
    open_session_blocks,
    protocol_distribution,
    stack_layout,
)
from .reductions import (
    ClusteringBuild,
    DenseRegressionBuild,
    DisjointnessInstance,
    FunctionPair,
    GapHammingInstance,
    HamiltonianBuild,
    PcaBuild,
    PromiseViolation,
    RecsysBuild,
    SingularSystem,
    SparseRegressionBuild,
    ZeroMatrix,
    build_clustering,
    build_hamiltonian,
    build_pca,
    build_recsys,
    build_regression_dense,
    build_regression_sparse,
    decide_clustering,
    decide_disjointness,
    decide_pca,
    decide_recsys,
    dense_solution_law,
    gen_disjointness,
    gen_function_pair,
    gen_gap_hamming,
    hamiltonian_evolved_law,
    hamiltonian_identity_error,
)
from .harness import (
    CheckResult,
    ChiSquareResult,
    ConfigError,
    ExperimentConfig,
    Report,
    TooFewSamples,
    chi_square,
    default_config,
    load_config,
    parse_config,
    report_csv_bytes,
    report_json_bytes,
    run,
    tv_distance,
    write_report,
)
from .verify import SUITES, run_suite, suite_passed

__version__ = "0.1.0"
