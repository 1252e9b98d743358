"""NaN and +inf never pass a constructor's or entry point's range check.

Every check is written ``not x > 0`` (or ``not x >= 0``), which is false for
NaN, rather than ``x <= 0``, which lets NaN through; the checks of values
that must be finite are written ``not 0 < x < math.inf``.
"""

import math

import numpy as np
import pytest

from gpconv.analysis import (
    DesignSet,
    RateFit,
    discrete_norm,
    fit_rate,
    matern_equivalence_constants,
    uniform_design,
)
from gpconv.deep import (
    DgpChain,
    DgpSpec,
    LayerSpec,
    Truncation,
    dgp_posterior_mean,
    sample_dgp_prior,
)
from gpconv.errors import ConfigError, ParameterError
from gpconv.experiments import ConvergenceRecord, DesignRule, McmcParams, NoiseModel
from gpconv.functions import make_function
from gpconv.gp import (
    TrainingData,
    fit,
    posterior_cov,
    posterior_mean,
    posterior_var,
    sample_prior,
)
from gpconv.kernels import (
    ConvolutionKernel,
    GaussianKernel,
    MaternKernel,
    WarpKernel,
    bell_number,
    check_psd,
    derivative_bound_constant,
    matern_eval,
)
from gpconv.plotting import PlotRequest, render_loglog_svg

NAN = math.nan
PTS = np.array([0.0, 1.0, 2.0])


def _data(noise_var=0.0):
    return TrainingData(points=PTS, values=np.zeros(3), noise_var=noise_var)


def _post():
    return fit(MaternKernel(2.5), TrainingData(PTS, np.array([1.0, 2.0, 0.5])))


MESH = np.linspace(0.0, 1.0, 5)
# untruncated, so a non-uniform mesh reaches the layer-0 factor
DGP = DgpSpec(
    depth=1, layer0=MaternKernel(3.5), layers=(LayerSpec("warp", base=MaternKernel(2.5)),)
)
H = np.array([0.4, 0.2, 0.1])


def _chain(mesh):
    return DgpChain(DGP, TrainingData(PTS, np.zeros(3), noise_var=1e-4), mesh, 0.3, 0)


def _bound(norm_inputs, p=1):
    warp = WarpKernel(make_function({"kind": "identity"}), GaussianKernel())
    return derivative_bound_constant(warp, p, norm_inputs)


def _convolution_bound(lambda_c0):
    conv = ConvolutionKernel(make_function({"kind": "constant", "value": 1.0}), GaussianKernel())
    norm_inputs = {"lambda_c2p": 1.0, "c_min": 0.5, "lambda_c0": lambda_c0}
    return derivative_bound_constant(conv, 1, norm_inputs)


def _svg(h=0.5, error=0.1, slope=2.0, intercept=0.0, reference=2.0):
    records = [
        ConvergenceRecord(n=2, fill_distance=h, errors={"l2": error}, wall_time_ms=0.0),
        ConvergenceRecord(n=4, fill_distance=0.25, errors={"l2": 0.01}, wall_time_ms=0.0),
    ]
    fit = RateFit(slope=slope, intercept=intercept, r_squared=1.0, points_used=2)
    request = PlotRequest(records=records, rate_fit=fit, title="t", reference_slopes=(reference,))
    return render_loglog_svg(request)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 0, NAN), ParameterError),
        (lambda: LayerSpec("mixture_f", MaternKernel(2.5), link_eta=NAN), ParameterError),
        (lambda: _data(noise_var=NAN), ParameterError),
        (lambda: fit(MaternKernel(1.5), _data(), jitter=NAN), ParameterError),
        (lambda: NoiseModel("fixed", delta_sq=NAN), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=NAN), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=1.0, exponent=NAN), ConfigError),
        (lambda: check_psd(MaternKernel(1.5), PTS, tol=NAN), ParameterError),
        (lambda: TrainingData([0.0, NAN], [1.0, 2.0]), ParameterError),
        (lambda: TrainingData([0.0, 1.0], [1.0, NAN]), ParameterError),
        (lambda: DesignSet(points=[0.5, NAN], domain=(0.0, 1.0)), ParameterError),
        (lambda: posterior_mean(_post(), [0.5, NAN]), ParameterError),
        (lambda: posterior_var(_post(), [0.5, NAN]), ParameterError),
        (lambda: posterior_cov(_post(), 0.5, NAN), ParameterError),
        (lambda: discrete_norm([0.0, NAN, 1.0, 2.0, 3.0], MESH, "holder_discrete", 2),
         ParameterError),
        (lambda: sample_prior(MaternKernel(2.5), [0.0, NAN, 1.0, 2.0], 0), ParameterError),
        (lambda: sample_dgp_prior(DGP, [0.0, 1.0, 2.0, NAN], 0), ParameterError),
        (lambda: _chain([0.0, 1.0, 2.0, NAN]), ParameterError),
        (lambda: matern_eval(2.5, 1.0, 1.0, NAN), ParameterError),
        (lambda: fit_rate([0.4, NAN, 0.1], H**2, 3), ParameterError),
        (lambda: fit_rate(H, [0.16, NAN, 0.01], 3), ParameterError),
        (lambda: matern_equivalence_constants(1.5, NAN, 1.0, 1), ParameterError),
        (lambda: matern_equivalence_constants(1.5, 1.0, NAN, 1), ParameterError),
        (lambda: _bound({"w_c2p": NAN}), ParameterError),
        (lambda: _convolution_bound(NAN), ParameterError),
        (lambda: _svg(h=NAN), ParameterError),
        (lambda: _svg(error=NAN), ParameterError),
        (lambda: _svg(slope=NAN), ParameterError),
        (lambda: _svg(intercept=NAN), ParameterError),
        (lambda: _svg(reference=NAN), ParameterError),
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "exponent", "psd-tol", "training-point", "training-value", "design-point", "query-mean",
         "query-var", "query-cov", "norm-values", "prior-mesh", "dgp-prior-mesh",
         "chain-mesh", "matern-distance", "rate-h", "rate-error", "equivalence-lam",
         "equivalence-sigma-sq", "bound-norm-input", "bound-lambda-c0", "plot-h",
         "plot-error", "plot-slope", "plot-intercept", "plot-reference"],
)
def test_nan_rejected(build, error):
    with pytest.raises(error):
        build()


INF = math.inf


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 0, INF), ParameterError),
        (lambda: LayerSpec("mixture_f", MaternKernel(2.5), link_eta=INF), ParameterError),
        (lambda: _data(noise_var=INF), ParameterError),
        (lambda: fit(MaternKernel(1.5), _data(), jitter=INF), ParameterError),
        (lambda: NoiseModel("fixed", delta_sq=INF), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=INF), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=1.0, exponent=INF), ConfigError),
        (lambda: check_psd(MaternKernel(1.5), PTS, tol=INF), ParameterError),
        (lambda: MaternKernel(2.5, lam=INF), ParameterError),
        (lambda: MaternKernel(2.5, sigma_sq=INF), ParameterError),
        (lambda: GaussianKernel(lam=INF), ParameterError),
        (lambda: GaussianKernel(sigma_sq=INF), ParameterError),
        (lambda: TrainingData([0.0, INF], [1.0, 2.0]), ParameterError),
        (lambda: TrainingData([0.0, 1.0], [1.0, INF]), ParameterError),
        (lambda: DesignSet(points=[0.5], domain=(0.0, INF)), ParameterError),
        (lambda: posterior_mean(_post(), [0.5, INF]), ParameterError),
        (lambda: posterior_var(_post(), [0.5, -INF]), ParameterError),
        (lambda: posterior_cov(_post(), INF, 0.5), ParameterError),
        (lambda: discrete_norm([0.0, 1.0, INF, 2.0, 3.0], MESH, "sobolev_discrete", 1),
         ParameterError),
        (lambda: sample_prior(MaternKernel(2.5), [0.0, INF, 1.0, 2.0], 0), ParameterError),
        (lambda: sample_dgp_prior(DGP, [0.0, 1.0, 2.0, INF], 0), ParameterError),
        (lambda: _chain([0.0, 1.0, 2.0, INF]), ParameterError),
        (lambda: matern_eval(2.5, 1.0, 1.0, INF), ParameterError),
        (lambda: fit_rate([0.4, 0.2, INF], H**2, 3), ParameterError),
        (lambda: fit_rate(H, [0.16, INF, 0.01], 3), ParameterError),
        (lambda: matern_equivalence_constants(1.5, INF, 1.0, 1), ParameterError),
        (lambda: matern_equivalence_constants(1.5, 1.0, INF, 1), ParameterError),
        (lambda: _bound({"w_c2p": INF}), ParameterError),
        (lambda: _convolution_bound(INF), ParameterError),
        (lambda: _svg(h=INF), ParameterError),
        (lambda: _svg(error=INF), ParameterError),
        (lambda: _svg(slope=-INF), ParameterError),
        (lambda: _svg(intercept=INF), ParameterError),
        (lambda: _svg(reference=INF), ParameterError),
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "exponent", "psd-tol", "matern-lam", "matern-sigma-sq", "gaussian-lam", "gaussian-sigma-sq",
         "training-point", "training-value", "design-domain", "query-mean", "query-var",
         "query-cov", "norm-values", "prior-mesh", "dgp-prior-mesh", "chain-mesh",
         "matern-distance", "rate-h", "rate-error", "equivalence-lam",
         "equivalence-sigma-sq", "bound-norm-input", "bound-lambda-c0", "plot-h",
         "plot-error", "plot-slope", "plot-intercept", "plot-reference"],
)
def test_inf_rejected(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 1.5, 50.0), ParameterError),
        (lambda: DgpSpec(depth=1.0, layer0=MaternKernel(3.5), layers=DGP.layers), ParameterError),
        (lambda: DgpSpec(depth=1, layer0=MaternKernel(3.5), layers=DGP.layers, width=True),
         ParameterError),
        (lambda: discrete_norm(np.zeros(5), MESH, "holder_discrete", 1.5), ParameterError),
        (lambda: fit_rate(H, H**2, 2.5), ParameterError),
        (lambda: dgp_posterior_mean(_chain(MESH), 1, 2.0), ParameterError),
        (lambda: dgp_posterior_mean(_chain(MESH), 0.5, 1), ParameterError),
        (lambda: uniform_design((0.0, 1.0), 4.0), ParameterError),
        (lambda: McmcParams(n_burn=2.5), ConfigError),
        (lambda: McmcParams(n_iter=True), ConfigError),
        (lambda: bell_number(2.5), ParameterError),
        (lambda: bell_number(3.0), ParameterError),
        (lambda: bell_number(True), ParameterError),
        (lambda: _bound({"w_c2p": 1.0}, p=1.5), ParameterError),
        (lambda: _bound({"w_c2p": 1.0}, p=True), ParameterError),
        (lambda: matern_equivalence_constants(1.5, 1.0, 1.0, 1.5), ParameterError),
        (lambda: matern_equivalence_constants(1.5, 1.0, 1.0, True), ParameterError),
        (lambda: DesignRule("random", seed=1.5), ConfigError),
        (lambda: RateFit(2.0, 0.0, 1.0, 2.5), ParameterError),
        (lambda: RateFit(2.0, 0.0, 1.0, True), ParameterError),
    ],
    ids=["truncation-order", "dgp-depth", "dgp-width", "norm-order", "rate-tail",
         "chain-iterations", "chain-burn-in", "design-size", "mcmc-burn-in",
         "mcmc-iterations", "bell-half", "bell-float", "bell-bool", "bound-order",
         "bound-order-bool", "equivalence-dim", "equivalence-dim-bool", "design-seed",
         "rate-fit-points", "rate-fit-points-bool"],
)
def test_non_integer_count_rejected(build, error):
    """A count given as a float or a bool is rejected up front, not later
    by a bare TypeError from range() or a slice."""
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: NoiseModel("schedule", c_delta=1.0, exponent="2.5"), ConfigError),
        (lambda: NoiseModel("fixed", delta_sq=True), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=True), ConfigError),
        (lambda: NoiseModel(sample_noise=1), ConfigError),
        (lambda: NoiseModel(sample_noise="no"), ConfigError),
        (lambda: MaternKernel(True), ParameterError),
        (lambda: MaternKernel("2.5"), ParameterError),
        (lambda: MaternKernel(2.5, sigma_sq=True), ParameterError),
        (lambda: GaussianKernel(lam=True), ParameterError),
        (lambda: Truncation("holder_discrete", 2, True), ParameterError),
        (lambda: Truncation("holder_discrete", 2, "50"), ParameterError),
        (lambda: LayerSpec("mixture_f", MaternKernel(1.5), link_eta=True), ParameterError),
        (lambda: LayerSpec("warp", MaternKernel(1.5), link_eta="1"), ParameterError),
        (lambda: DgpSpec(depth=1, layer0=MaternKernel(3.5), layers=DGP.layers,
                         rescale_warp="no"), ParameterError),
        (lambda: DgpSpec(depth=1, layer0=MaternKernel(3.5), layers=DGP.layers,
                         rescale_warp=1), ParameterError),
    ],
    ids=["exponent-str", "delta-sq-bool", "c-delta-bool", "sample-noise-int",
         "sample-noise-str", "matern-nu-bool", "matern-nu-str", "matern-sigma-sq-bool",
         "gaussian-lam-bool", "truncation-radius-bool", "truncation-radius-str",
         "link-eta-bool", "warp-link-eta-str", "rescale-warp-str", "rescale-warp-int"],
)
def test_wrong_type_rejected(build, error):
    """A real-valued field takes a number but no bool, and a flag takes a
    bool only, as in a JSON config; a wrong type is the constructor's
    own error, not a bare TypeError or a later failure."""
    with pytest.raises(error):
        build()


def test_negative_lambda_c0_rejected():
    with pytest.raises(ParameterError):
        _convolution_bound(-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DgpSpec(depth=1, layer0=GaussianKernel(), layers=DGP.layers),
        lambda: LayerSpec("warp", base=GaussianKernel()),
    ],
    ids=["layer0", "base"],
)
def test_gaussian_hierarchy_kernel_rejected(build):
    """A hierarchy's initial layer and each layer's base are Matern kernels."""
    with pytest.raises(ParameterError, match="MaternKernel"):
        build()


@pytest.mark.parametrize(
    "fields",
    [
        (NAN, INF, 7.0, 3),
        (NAN, 0.0, 1.0, 2),
        (2.0, -INF, 1.0, 2),
        (2.0, 0.0, NAN, 2),
        (2.0, 0.0, 1.5, 2),
        (2.0, 0.0, -0.25, 2),
        (True, 0.0, 1.0, 2),
        (2.0, 0.0, 1.0, 1),
    ],
    ids=["all-bad", "slope-nan", "intercept-inf", "r-squared-nan", "r-squared-above-1",
         "r-squared-negative", "slope-bool", "one-point"],
)
def test_rate_fit_rejects_nonsense(fields):
    """A rate fit has a finite slope and intercept, r^2 in [0, 1] and at
    least two points; the extremes themselves are fine."""
    with pytest.raises(ParameterError):
        RateFit(*fields)
    assert RateFit(-3.0, 1e300, 0.0, 2).r_squared == 0.0
    assert RateFit(2.0, 0.0, 1.0, 7).points_used == 7


@pytest.mark.parametrize("noise_var", [True, False, "0.1", None])
def test_noise_var_must_be_a_number(noise_var):
    with pytest.raises(ParameterError, match="noise_var"):
        _data(noise_var=noise_var)
