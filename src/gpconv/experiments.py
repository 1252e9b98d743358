"""Declarative convergence experiments.

An experiment fixes a truth function, a kernel (or layered hierarchy), a
design rule, a schedule of training-set sizes and a noise model.  Running
it produces one record per schedule level (fill distance, error in each
requested norm, wall time, flags) and a fitted convergence rate per norm
from the log-log tail.  The six built-in configurations reproduce the
reference convergence studies on (0, 5) with truth sin(2u).

Configs serialise to and from JSON by one rule read off the dataclass
fields: an object holds a dataclass's fields under their names (a kernel
adds its ``variant``) and may leave out any field with a default, so each
default is stated once, on its dataclass.  An unknown key or a value of the
wrong type is a ``ConfigError`` naming its key path.  Every kernel object
names its ``variant``, also where the field takes one kernel class only (a
hierarchy's ``layer0`` and each layer's ``base`` are ``"matern"``).
``config_to_dict`` writes every field, defaults included.  A
hierarchy has no domain of its own: a rescaled warp layer maps onto the
config's ``domain``, the ends of the evaluation mesh its chain runs on.

Random streams are split deterministically from (seed, config id, level),
so results do not depend on execution order.

A run has three phases: it fits every schedule level, timed per level;
predicts every level's posterior mean on the evaluation mesh in one call
(for a kernel, one ``gp.posterior_means`` pass that evaluates each block of
the cross matrix once against the union of the levels' designs; for a
hierarchy, the chains' means pass through); and then computes each level's
error norms, timed per level.  A record's wall time is its own fit and
norms plus the prediction time split in proportion to its N, so the
records' times still add up to the study's time less its set-up.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import deep
from .analysis import (
    ERROR_FLOOR,
    NORM_KINDS,
    DesignSet,
    RateFit,
    error_norm,
    fill_distance,
    fit_rate,
    uniform_design,
)
from .errors import ConfigError, ParameterError
from .functions import (
    SCALAR_TYPES,
    FunctionHandle,
    FunctionSpecError,
    make_function,
    scalar_problem,
)
from .gp import DEFAULT_JITTER, TrainingData, fit, posterior_means, posterior_var
from .kernels import (
    ConvolutionKernel,
    GaussianKernel,
    KernelSpec,
    MaternKernel,
    MixtureKernel,
    WarpKernel,
)


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: none, a fixed variance, or a fill-distance schedule.

    ``sample_noise`` controls whether Gaussian noise is actually added to
    the observations; with it off, the noise level only enters the solve,
    which is the misspecified zero-noise regime.
    """

    kind: str = "none"
    delta_sq: float = 0.0
    c_delta: float = 0.0
    exponent: float = 0.0
    sample_noise: bool = True

    def __post_init__(self):
        if self.kind not in ("none", "fixed", "schedule"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        for name, kind in (
            ("delta_sq", float), ("c_delta", float), ("exponent", float), ("sample_noise", bool)
        ):
            if problem := scalar_problem(getattr(self, name), kind):
                raise ConfigError(f"{name}: {problem}")
        if self.kind == "fixed" and not 0 < self.delta_sq < math.inf:
            raise ConfigError("fixed noise requires a finite delta_sq > 0")
        if self.kind == "schedule" and not 0 < self.c_delta < math.inf:
            raise ConfigError("noise schedule requires a finite c_delta > 0")

    def level(self, h: float) -> float:
        """Noise variance delta^2 at fill distance h."""
        if self.kind == "none":
            return 0.0
        if self.kind == "fixed":
            return self.delta_sq
        return (self.c_delta * h**self.exponent) ** 2


@dataclass(frozen=True)
class DesignRule:
    kind: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "random"):
            raise ConfigError(f"unknown design kind {self.kind!r}")
        if problem := scalar_problem(self.seed, int):
            raise ConfigError(f"seed: {problem}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class McmcParams:
    n_burn: int = 500
    n_iter: int = 2000

    def __post_init__(self):
        for name in ("n_burn", "n_iter"):
            if problem := scalar_problem(getattr(self, name), int):
                raise ConfigError(f"{name}: {problem}")
        if self.n_burn < 0:
            raise ConfigError(f"n_burn must be non-negative, got {self.n_burn}")
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be at least 1, got {self.n_iter}")


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    domain: tuple[float, float]
    truth: FunctionHandle
    kernel: KernelSpec | deep.DgpSpec
    n_schedule: tuple[int, ...]
    design: DesignRule = DesignRule()
    noise: NoiseModel = NoiseModel()
    jitter: float = DEFAULT_JITTER
    eval_mesh_size: int = 4096
    norms: tuple[str, ...] = ("l2", "h1", "sup")
    rate_tail: int = 5

    def __post_init__(self):
        # the id names the output files, so it must be a plain file-name stem
        if not (isinstance(self.id, str) and re.fullmatch(r"[\w-][\w.-]*", self.id, re.ASCII)):
            raise ConfigError(
                "id must be letters, digits, '_', '-' and '.', not starting with '.', "
                f"got {self.id!r}"
            )
        object.__setattr__(self, "domain", _interval(self.domain, "domain"))
        if not _all_numbers(self.n_schedule, int):
            raise ConfigError(f"n_schedule must be a list of integers, got {self.n_schedule!r}")
        object.__setattr__(self, "n_schedule", tuple(int(n) for n in self.n_schedule))
        object.__setattr__(self, "norms", tuple(self.norms))
        if len(self.n_schedule) == 0 or any(
            b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])
        ):
            raise ConfigError("n_schedule must be non-empty and strictly increasing")
        for norm in self.norms:
            if norm not in NORM_KINDS:
                raise ConfigError(f"unknown norm kind {norm!r}")
        # a study reports its first norm, and a repeat would write a column twice
        if not self.norms or len(set(self.norms)) != len(self.norms):
            raise ConfigError(f"norms must be non-empty, without repeats, got {list(self.norms)}")
        for name, kind in (("rate_tail", int), ("eval_mesh_size", int), ("jitter", float)):
            if problem := scalar_problem(getattr(self, name), kind):
                raise ConfigError(f"{name}: {problem}")
        if not self.jitter >= 0:
            raise ConfigError(f"jitter must be non-negative, got {self.jitter!r}")
        if self.rate_tail < 2:
            raise ConfigError("rate_tail must be at least 2")
        if self.eval_mesh_size < 4:
            raise ConfigError("eval_mesh_size must be at least 4")

    @property
    def recommended_mesh(self) -> bool:
        return self.eval_mesh_size >= 4 * max(self.n_schedule)

    def eval_mesh(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.eval_mesh_size)


def _all_numbers(values, kind: type) -> bool:
    """Whether ``values`` is a list, tuple or array of ``kind`` (float or int)
    numbers, by the JSON scalar rule."""
    return isinstance(values, (list, tuple, np.ndarray)) and not any(
        scalar_problem(v, kind) for v in values
    )


def _interval(value, what: str) -> tuple[float, float]:
    """An interval (a, b) with a < b, given as exactly two numbers."""
    if not _all_numbers(value, float) or len(value) != 2:
        raise ConfigError(f"{what} must be exactly two numbers, got {value!r}")
    if not value[0] < value[1]:
        raise ConfigError(f"{what} must satisfy a < b, got {value!r}")
    return float(value[0]), float(value[1])


@dataclass
class ConvergenceRecord:
    """One schedule level: geometry, errors and bookkeeping flags."""

    n: int
    fill_distance: float
    errors: dict[str, float]
    wall_time_ms: float
    flags: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# running


def _level_rng(seed: int, config_id: str, level: int, *stream: int):
    """One level's random stream, keyed [seed, tag, level, *stream] with a tag
    hashed from the config id.

    A random design draws from ``stream = (design.seed + 1,)``, a chain's
    seed from ``(3,)`` and sampled noise from ``(2, 0)``.  numpy's seed
    sequence joins the key's integers as 32-bit words, least significant
    first, and a positive integer's words never end in a zero word, so no
    ``design.seed`` reaches the noise key.  A hierarchy run with a random
    design at ``design.seed = 2`` still shares its design stream with the
    chain's.
    """
    tag = int.from_bytes(hashlib.sha256(config_id.encode()).digest()[:8], "big")
    return np.random.default_rng([int(seed), tag, int(level), *map(int, stream)])


def _level_data(config: ExperimentConfig, n: int, seed: int, level: int):
    """Fill distance and training data at one schedule level."""
    if config.design.kind == "uniform":
        design = uniform_design(config.domain, n)
    else:
        rng = _level_rng(seed, config.id, level, config.design.seed + 1)
        design = DesignSet(points=rng.uniform(*config.domain, n), domain=config.domain)
    h = fill_distance(design)
    delta_sq = config.noise.level(h)
    values = np.asarray(config.truth(design.points), dtype=float)
    if delta_sq > 0 and config.noise.sample_noise:
        rng = _level_rng(seed, config.id, level, 2, 0)
        values = values + math.sqrt(delta_sq) * rng.standard_normal(len(values))
    return h, TrainingData(design.points, values, noise_var=delta_sq)


def _fit_rates(
    records: list[ConvergenceRecord], norms, tail: int
) -> dict[str, RateFit]:
    fits: dict[str, RateFit] = {}
    tail = min(tail, len(records))
    if tail < 2:
        return fits
    h = np.array([r.fill_distance for r in records])
    order = np.argsort(h)[:tail]
    for kind in norms:
        errs = np.array([r.errors[kind] for r in records])
        if np.all(errs[order] <= ERROR_FLOOR):
            continue  # saturated column, a fit would be meaningless
        fits[kind] = fit_rate(h, errs, tail)
    return fits


def _run_levels(
    config: ExperimentConfig, seed: int, fit_level, predict
) -> tuple[list[ConvergenceRecord], dict[str, RateFit]]:
    """The schedule loop of every runner, in three phases.

    1. Fit: ``fit_level(level, data, mesh)`` returns what prediction needs
       of one level and that level's own flags; each level is timed.
    2. Predict: ``predict(fitted, mesh)`` returns the posterior mean on the
       mesh of every level, in schedule order, from one call.
    3. Score: each level's floored error norms (``saturation`` first in its
       flags), timed per level, and then the rates.

    A record's ``wall_time_ms`` is its own fit and norms plus a share of
    the prediction time in proportion to its N, so the records' times add
    up to the study's time less the design and data set-up.
    """
    if not config.recommended_mesh:
        warnings.warn(
            f"config {config.id!r}: eval_mesh_size {config.eval_mesh_size} is below "
            f"the recommended 4 x max(n_schedule) = {4 * max(config.n_schedule)}",
            stacklevel=3,
        )
    mesh = config.eval_mesh()
    levels = []
    for level, n in enumerate(config.n_schedule):
        h, data = _level_data(config, n, seed, level)
        start = time.perf_counter()
        fitted, flags = fit_level(level, data, mesh)
        levels.append((h, fitted, flags, time.perf_counter() - start))

    start = time.perf_counter()
    means = predict([fitted for _, fitted, _, _ in levels], mesh)
    predict_s_per_point = (time.perf_counter() - start) / sum(config.n_schedule)

    records = []
    for n, mean, (h, _, flags, fit_s) in zip(config.n_schedule, means, levels):
        start = time.perf_counter()
        raw = {kind: error_norm(config.truth, mean, mesh, kind) for kind in config.norms}
        seconds = fit_s + (time.perf_counter() - start) + predict_s_per_point * n
        if any(value < ERROR_FLOOR for value in raw.values()):
            flags = ["saturation"] + flags
        errors = {kind: max(value, ERROR_FLOOR) for kind, value in raw.items()}
        records.append(ConvergenceRecord(n, h, errors, 1000.0 * seconds, flags))
    return records, _fit_rates(records, config.norms, config.rate_tail)


def run_convergence(
    config: ExperimentConfig, seed: int
) -> tuple[list[ConvergenceRecord], dict[str, RateFit]]:
    """Fit the kernel at every schedule level, predict every level on the
    mesh in one ``posterior_means`` pass, and fit rates per norm.

    Only each level's design points and weights are kept until the
    prediction, not its Cholesky factor, so at most one factor is held.
    """
    if isinstance(config.kernel, deep.DgpSpec):
        raise ConfigError(
            f"config {config.id!r} holds a layered hierarchy; use run_dgp_convergence "
            "(the 'dgp' subcommand)"
        )

    def fit_level(level, data, mesh):
        post = fit(config.kernel, data, jitter=config.jitter)
        return (data.points, post.weights), ["jitter-escalation"] if post.escalated else []

    def predict(fitted, mesh):
        return posterior_means(config.kernel, fitted, mesh)

    return _run_levels(config, seed, fit_level, predict)


def run_dgp_convergence(
    config: ExperimentConfig, mcmc: McmcParams, seed: int
) -> tuple[list[ConvergenceRecord], dict[str, RateFit]]:
    """Hierarchy version: one hidden-layer chain per schedule level.

    Requires a noise schedule; the level delta_N = c h^exponent feeds the
    marginal likelihood (and, when sample_noise is on, the observations).
    Layer 0's spectral factor depends only on its kernel and the mesh, so
    it is made once and shared by every level's chain.  A chain's average
    conditional mean is already on the mesh, so the prediction phase
    passes the chain means through.
    """
    if not isinstance(config.kernel, deep.DgpSpec):
        raise ConfigError(
            f"config {config.id!r} does not hold a layered hierarchy; use run_convergence "
            "(the 'run' subcommand)"
        )
    if config.noise.kind != "schedule":
        raise ConfigError("hierarchy runs need a noise schedule (delta as a power of h)")

    _, _, factor0 = deep._on_mesh(config.kernel, config.eval_mesh())

    def fit_level(level, data, mesh):
        rng_seed = _level_rng(seed, config.id, level, 3).integers(2**63)
        chain = deep.DgpChain(config.kernel, data, mesh, deep.TUNE_START, rng_seed, factor0)
        mean = deep.dgp_posterior_mean(chain, mcmc.n_burn, mcmc.n_iter)
        flags = []
        if chain.n_trunc_rejections > 0.5 * chain.iteration:
            flags.append("truncation-warning")
        if chain.n_assembly_failures > 0:
            flags.append("assembly-failures")
        return mean, flags

    return _run_levels(config, seed, fit_level, lambda means, mesh: means)


def mean_posterior_variance(config: ExperimentConfig, n: int, seed: int = 0) -> float:
    """Average posterior variance over the evaluation mesh at the schedule
    level of size n; an n outside ``config.n_schedule`` is a ``ParameterError``."""
    if n not in config.n_schedule:
        raise ParameterError(f"n = {n} is not in the schedule {list(config.n_schedule)}")
    level = config.n_schedule.index(n)
    _, data = _level_data(config, n, seed, level)
    post = fit(config.kernel, data, jitter=config.jitter)
    return float(np.mean(posterior_var(post, config.eval_mesh())))


# ---------------------------------------------------------------------------
# built-in figure configurations

# Fitted-slope bands each figure is expected to land in, with the rate the
# theory predicts for it.  The convolution figure is special: the provable
# rate is 1/2 but the observed slope is far faster, so the pass band is one
# sided and the two-sided band is informational.
FIGURE_BANDS: dict[str, dict] = {
    "fig_mix3_smooth": {"expected": 2.0, "band": (1.6, 2.6)},
    "fig_warp": {"expected": 3.0, "band": (2.5, 3.5)},
    "fig_conv": {"expected": 0.5, "band": (1.2, math.inf), "info_band": (1.5, 2.5)},
    "fig_mix3_indicator": {"expected": 3.0, "band": (2.4, 3.6)},
    "fig_warp_noninv": {"expected": 2.0, "band": (1.5, 2.5)},
    "fig_warp_piecewise": {"expected": 2.0, "band": (1.5, 2.5)},
}

_TRUTH_SIN2 = {"kind": "sine", "freq": 2.0, "amp": 1.0}


def _figure_config(config_id: str, kernel: KernelSpec) -> ExperimentConfig:
    return ExperimentConfig(
        id=config_id,
        domain=(0.0, 5.0),
        truth=make_function(_TRUTH_SIN2),
        kernel=kernel,
        n_schedule=tuple(2**level for level in range(1, 11)),
    )


def builtin_figures() -> list[ExperimentConfig]:
    """The six built-in convergence studies on (0, 5) with truth sin(2u)."""
    poly2 = lambda a, b, c: make_function({"kind": "poly2", "a": a, "b": b, "c": c})
    indicator = lambda lo, hi, il, ih: make_function(
        {
            "kind": "indicator",
            "lo": lo,
            "hi": hi,
            "scale": 0.5,
            "include_lo": il,
            "include_hi": ih,
        }
    )

    mix_smooth = MixtureKernel(
        components=(
            (poly2(0.5, 1.0, 0.5), MaternKernel(2.5)),
            (poly2(0.5, -0.5, 0.5), MaternKernel(1.5)),
            (poly2(0.5, 0.5, 0.5), MaternKernel(3.5)),
        )
    )
    # The quadratic warp compresses the left half of the domain hard; a
    # base length scale of 1 there pushes the Gram condition number past
    # what double precision can factor by N = 512, burying the rate-3
    # regime under solver noise.  0.08 keeps the whole schedule clean and
    # leaves the fixed-noise variant of this study enough signal range.
    warp = WarpKernel(w=poly2(0.2, 0.1, 0.0), base=MaternKernel(2.5, lam=0.08))
    conv = ConvolutionKernel(
        lambda_a=make_function({"kind": "poly2_sin", "a": 1.0, "b": -3.0, "c": 4.0}),
        base_iso=MaternKernel(0.5),
    )
    mix_indicator = MixtureKernel(
        components=(
            (indicator(0.0, 2.0, True, True), MaternKernel(3.0)),
            (indicator(1.0, 4.0, False, False), MaternKernel(2.5)),
            (indicator(3.0, 5.0, True, True), MaternKernel(3.5)),
        )
    )
    warp_noninv = WarpKernel(
        w=poly2(1.0, -3.0 * math.pi / 4.0, 0.0), base=MaternKernel(1.5)
    )
    warp_piecewise = WarpKernel(
        w=make_function(
            {
                "kind": "piecewise_poly2",
                "split": 2.5,
                "a1": 0.2,
                "b1": 0.1,
                "c1": 0.0,
                "a2": 1.0 / 3.0,
                "b2": 0.1,
                "c2": 0.0,
            }
        ),
        base=MaternKernel(1.5),
    )

    return [
        _figure_config("fig_mix3_smooth", mix_smooth),
        _figure_config("fig_warp", warp),
        _figure_config("fig_conv", conv),
        _figure_config("fig_mix3_indicator", mix_indicator),
        _figure_config("fig_warp_noninv", warp_noninv),
        _figure_config("fig_warp_piecewise", warp_piecewise),
    ]


def reference_tdgp_config() -> tuple[ExperimentConfig, McmcParams]:
    """The layered reference run: depth 1, constrained initial layer.

    The initial layer is Matern 7/2 held in a discrete C^2 ball of radius
    50; the smoothness bookkeeping (beta = floor(7/2 - 1/2) = 3) puts the
    final warping layer at Matern 5/2 and the noise schedule at
    delta = h^(beta - 1/2) = h^2.5.  The initial layer's length scale is
    set to the domain length so its draws are gently varying: after the
    affine rescale they act as near-monotone warps, which the sharply
    peaked small-delta likelihood at the finest level requires.

    The ball never binds, so the reference chain is, in effect,
    untruncated.  At seeds 1-20 and 42 (one BLAS thread) it rejected 0 of
    the 7,500 proposals of each seed.  Over 500 prior draws of the initial
    layer on the 1024-point mesh, the discrete C^2 norm had a median of
    about 1.6 and a maximum of about 4.3.
    """
    spec = deep.DgpSpec(
        depth=1,
        layer0=MaternKernel(3.5, lam=5.0),
        layers=(
            deep.LayerSpec(
                construction="warp",
                base=MaternKernel(2.5),
                truncation=deep.Truncation(norm_kind="holder_discrete", order=2, radius=50.0),
            ),
        ),
        rescale_warp=True,
    )
    config = ExperimentConfig(
        id="tdgp_reference",
        domain=(0.0, 5.0),
        truth=make_function(_TRUTH_SIN2),
        kernel=spec,
        n_schedule=(16, 64, 256),
        noise=NoiseModel("schedule", c_delta=1.0, exponent=2.5, sample_noise=False),
        eval_mesh_size=1024,
        rate_tail=3,
    )
    return config, McmcParams()


# ---------------------------------------------------------------------------
# serialisation

_VARIANTS = {
    MaternKernel: "matern",
    GaussianKernel: "gaussian",
    WarpKernel: "warp",
    MixtureKernel: "mixture",
    ConvolutionKernel: "convolution",
    deep.DgpSpec: "dgp",
}


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _error(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}" if path else message)


def _encode(value):
    """The JSON form of a config value."""
    if isinstance(value, FunctionHandle):
        return value.to_params()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    variant = _VARIANTS.get(type(value))
    return out if variant is None else {"variant": variant, **out}


def _decode(tp, value, path: str):
    """``value`` read from JSON as a ``tp``; ``path`` names it in errors."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in SCALAR_TYPES:
        if problem := scalar_problem(value, tp):
            raise _error(path, problem)
        return value
    if tp is FunctionHandle:
        try:
            return make_function(value)
        except FunctionSpecError as exc:
            raise _error(_join(path, exc.key) if exc.key else path, str(exc)) from exc
    if origin is tuple:  # tuple[X, ...], or a domain tuple[float, float] its class checks
        if not isinstance(value, (list, tuple)):
            raise _error(path, f"expected a list, got {value!r}")
        return tuple(_decode(args[0], v, _join(path, i)) for i, v in enumerate(value))
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value, path)
    if origin is typing.Union or tp in _VARIANTS:  # a kernel, chosen by its variant
        if not isinstance(value, dict):
            raise _error(path, f"expected an object, got {value!r}")
        variants = {name: cls for cls, name in _VARIANTS.items() if cls in args or cls is tp}
        variant = value.get("variant")
        if not isinstance(variant, str) or variant not in variants:
            expected = f"expected one of {sorted(variants)}, got {variant!r}"
            raise _error(_join(path, "variant"), expected)
        data = {k: v for k, v in value.items() if k != "variant"}
        return _decode_object(variants[variant], data, path)
    return _decode_object(tp, value, path)


def _decode_object(cls, data, path: str):
    """A ``cls`` from a JSON object of its fields; a field left out takes its
    default, and the constructor's own checks become ``ConfigError``s."""
    if not isinstance(data, dict):
        raise _error(path, f"expected an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    if unknown := [_join(path, key) for key in data if key not in names]:
        raise ConfigError(f"unknown keys {unknown}")
    required = [f.name for f in fields(cls) if f.default is MISSING]
    if missing := [_join(path, key) for key in required if key not in data]:
        raise ConfigError(f"missing keys {missing}")
    kwargs = {key: _decode(hints[key], value, _join(path, key)) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, ParameterError) as exc:
        raise _error(path, str(exc)) from exc


def kernel_to_dict(spec: KernelSpec | deep.DgpSpec) -> dict:
    if type(spec) not in _VARIANTS:
        raise ConfigError(f"cannot serialise kernel {type(spec).__name__}")
    return _encode(spec)


def kernel_from_dict(data: dict) -> KernelSpec | deep.DgpSpec:
    return _decode(KernelSpec | deep.DgpSpec, data, "kernel")


def config_to_dict(config: ExperimentConfig) -> dict:
    return _encode(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _decode_object(ExperimentConfig, data, "")


# ---------------------------------------------------------------------------
# CSV output

def records_csv(records: list[ConvergenceRecord], norms) -> str:
    """Per-level results as CSV text.

    The timing column is written as 0.0: outputs must be byte-identical
    across reruns, and wall time is the one nondeterministic field.
    Measured times stay on the in-memory records for the console summary.
    """
    header = ["n", "fill_distance"] + [f"error_{k}" for k in norms] + [
        "wall_time_ms",
        "flags",
    ]
    lines = [",".join(header)]
    for rec in records:
        row = [str(rec.n), repr(float(rec.fill_distance))]
        row += [repr(float(rec.errors[k])) for k in norms]
        row.append("0.0")
        row.append(";".join(rec.flags))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def rates_csv(all_fits: dict[str, dict[str, RateFit]]) -> str:
    """Rate fits as CSV text keyed by (config id, norm)."""
    lines = ["config_id,norm,slope,intercept,r_squared,points_used"]
    for config_id in sorted(all_fits):
        fits = all_fits[config_id]
        for norm in fits:
            rf = fits[norm]
            lines.append(
                f"{config_id},{norm},{rf.slope!r},{rf.intercept!r},"
                f"{rf.r_squared!r},{rf.points_used}"
            )
    return "\n".join(lines) + "\n"
