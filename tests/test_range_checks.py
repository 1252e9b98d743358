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
from gpconv.experiments import McmcParams, NoiseModel
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
    GaussianKernel,
    MaternKernel,
    WarpKernel,
    check_psd,
    derivative_bound_constant,
    matern_eval,
)

NAN = math.nan
PTS = np.array([0.0, 1.0, 2.0])


def _data(noise_var=0.0):
    return TrainingData(points=PTS, values=np.zeros(3), noise_var=noise_var)


def _post():
    return fit(MaternKernel(2.5), TrainingData(PTS, np.array([1.0, 2.0, 0.5])))


MESH = np.linspace(0.0, 1.0, 5)
# untruncated, so a non-uniform mesh reaches the layer-0 factor
DGP = DgpSpec(depth=1, layer0_nu=3.5, layers=(LayerSpec("warp", base_nu=2.5),))
H = np.array([0.4, 0.2, 0.1])


def _chain(mesh):
    return DgpChain(DGP, TrainingData(PTS, np.zeros(3), noise_var=1e-4), mesh, 0.3, 0)


def _bound(norm_inputs):
    warp = WarpKernel(make_function({"kind": "identity"}), GaussianKernel())
    return derivative_bound_constant(warp, 1, norm_inputs)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 0, NAN), ParameterError),
        (lambda: LayerSpec("mixture_f", 2.5, link_eta=NAN), ParameterError),
        (lambda: _data(noise_var=NAN), ParameterError),
        (lambda: fit(MaternKernel(1.5), _data(), jitter=NAN), ParameterError),
        (lambda: NoiseModel("fixed", delta_sq=NAN), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=NAN), ConfigError),
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
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "psd-tol", "training-point", "training-value", "design-point", "query-mean",
         "query-var", "query-cov", "norm-values", "prior-mesh", "dgp-prior-mesh",
         "chain-mesh", "matern-distance", "rate-h", "rate-error", "equivalence-lam",
         "equivalence-sigma-sq", "bound-norm-input"],
)
def test_nan_rejected(build, error):
    with pytest.raises(error):
        build()


INF = math.inf


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 0, INF), ParameterError),
        (lambda: LayerSpec("mixture_f", 2.5, link_eta=INF), ParameterError),
        (lambda: _data(noise_var=INF), ParameterError),
        (lambda: fit(MaternKernel(1.5), _data(), jitter=INF), ParameterError),
        (lambda: NoiseModel("fixed", delta_sq=INF), ConfigError),
        (lambda: NoiseModel("schedule", c_delta=INF), ConfigError),
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
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "psd-tol", "matern-lam", "matern-sigma-sq", "gaussian-lam", "gaussian-sigma-sq",
         "training-point", "training-value", "design-domain", "query-mean", "query-var",
         "query-cov", "norm-values", "prior-mesh", "dgp-prior-mesh", "chain-mesh",
         "matern-distance", "rate-h", "rate-error", "equivalence-lam",
         "equivalence-sigma-sq", "bound-norm-input"],
)
def test_inf_rejected(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Truncation("holder_discrete", 1.5, 50.0), ParameterError),
        (lambda: DgpSpec(depth=1.0, layer0_nu=3.5, layers=DGP.layers), ParameterError),
        (lambda: DgpSpec(depth=1, layer0_nu=3.5, layers=DGP.layers, width=True),
         ParameterError),
        (lambda: discrete_norm(np.zeros(5), MESH, "holder_discrete", 1.5), ParameterError),
        (lambda: fit_rate(H, H**2, 2.5), ParameterError),
        (lambda: dgp_posterior_mean(_chain(MESH), 1, 2.0), ParameterError),
        (lambda: dgp_posterior_mean(_chain(MESH), 0.5, 1), ParameterError),
        (lambda: uniform_design((0.0, 1.0), 4.0), ParameterError),
        (lambda: McmcParams(n_burn=2.5), ConfigError),
        (lambda: McmcParams(n_iter=True), ConfigError),
    ],
    ids=["truncation-order", "dgp-depth", "dgp-width", "norm-order", "rate-tail",
         "chain-iterations", "chain-burn-in", "design-size", "mcmc-burn-in",
         "mcmc-iterations"],
)
def test_non_integer_count_rejected(build, error):
    """A count given as a float or a bool is rejected up front, not later
    by a bare TypeError from range() or a slice."""
    with pytest.raises(error):
        build()
