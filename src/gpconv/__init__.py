"""Non-stationary and deep Gaussian process regression with a convergence harness."""

from .analysis import (
    DesignSet,
    RateFit,
    discrete_norm,
    error_norm,
    fill_distance,
    fit_rate,
    matern_equivalence_constants,
    mesh_ratio,
    uniform_design,
)
from .deep import (
    DgpChain,
    DgpSpec,
    LayerSpec,
    Truncation,
    dgp_posterior_mean,
    sample_dgp_prior,
)
from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    GpconvError,
    MeshError,
    ParameterError,
    SamplingError,
    SingularGramError,
    TruncationError,
    UnsupportedKernelError,
)
from .experiments import (
    ConvergenceRecord,
    DesignRule,
    ExperimentConfig,
    McmcParams,
    NoiseModel,
    builtin_figures,
    config_from_dict,
    config_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    reference_tdgp_config,
    run_convergence,
    run_dgp_convergence,
)
from .functions import FunctionHandle, make_function, piecewise_linear
from .gp import (
    GpPosterior,
    TrainingData,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_means,
    posterior_var,
    sample_prior,
)
from .kernels import (
    ConvolutionKernel,
    GaussianKernel,
    KernelSpec,
    MaternKernel,
    MixtureKernel,
    WarpKernel,
    bell_number,
    check_psd,
    derivative_bound_constant,
    gram,
    kernel_eval,
    matern_eval,
)
from .plotting import PlotRequest, render_loglog_svg

__version__ = "0.1.0"
