"""NaN and +inf never pass a constructor's or entry point's range check.

Every check is written ``not x > 0`` (or ``not x >= 0``), which is false for
NaN, rather than ``x <= 0``, which lets NaN through; the checks of values
that must be finite are written ``not 0 < x < math.inf``.
"""

import math

import numpy as np
import pytest

from gpconv.deep import LayerSpec, Truncation
from gpconv.errors import ConfigError, ParameterError
from gpconv.experiments import NoiseModel
from gpconv.gp import TrainingData, fit
from gpconv.kernels import GaussianKernel, MaternKernel, check_psd

NAN = math.nan
PTS = np.array([0.0, 1.0, 2.0])


def _data(noise_var=0.0):
    return TrainingData(points=PTS, values=np.zeros(3), noise_var=noise_var)


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
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "psd-tol"],
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
    ],
    ids=["truncation-radius", "link-eta", "noise-var", "jitter", "delta-sq", "c-delta",
         "psd-tol", "matern-lam", "matern-sigma-sq", "gaussian-lam", "gaussian-sigma-sq"],
)
def test_inf_rejected(build, error):
    with pytest.raises(error):
        build()
