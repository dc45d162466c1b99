"""Chi-square goodness-of-fit testing for conditional distribution models.

The pipeline: transform responses through the fitted conditional CDF so they
are uniform exactly when the model is right, cross-classify them against a
partition of the covariate space, and calibrate chi-square statistics on the
resulting table. Data-dependent partitions (equal-count slicing and a
randomized recursive tree) keep cells balanced; a Monte Carlo engine checks
size and power of the whole procedure.
"""

from .backend import chisq_sf
from .errors import (
    CondgofError,
    ConvergenceFailureError,
    CovarianceConstructionError,
    DataError,
    DegenerateFitError,
    EmptyCellError,
    ExperimentInvalidError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidDfError,
    InvalidParameterError,
    InvalidStartError,
    ModelEvaluationError,
    SingularDesignError,
    SingularInformationError,
    UsageError,
)
from .estimate import (
    OptimizerConfig,
    min_chisq_estimate,
    mle_gaussian_linear,
    mle_numeric,
)
from .mc import (
    DgpSpec,
    PartitionRule,
    RepOutcome,
    SimConfig,
    SimResult,
    aggregate,
    calibrate_df,
    config_from_dict,
    law_grid_partition,
    run_experiment,
    run_pipeline,
    run_replication,
    simulate_dataset,
)
from .models import (
    ConditionalModel,
    Dataset,
    ExponentialRegressionModel,
    GaussianLinearModel,
    resolve_model,
    rosenblatt,
)
from .partition import (
    Partition,
    gessaman_partition,
    marginal_grid_partition,
    partition_from_dict,
    rtp_partition,
)
from .stats import (
    TestReport,
    WaldInputs,
    lm_stat,
    lr_stat,
    neyman_stat,
    pearson_stat,
    run_test,
    wald_raw_mle,
)
from .tabulate import (
    ContingencyTable,
    UGrid,
    balanced_grid,
)

__version__ = "0.1.0"
