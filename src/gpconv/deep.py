"""Layered conditionally-Gaussian hierarchies and their posterior sampling.

A depth-D hierarchy starts from a stationary Matern layer and feeds each
layer's sample into the covariance kernel of the next: through input
warping (the layer becomes the warping map) or through a single-component
mixture where the coefficient is F(layer) with F(x) = x^2 + eta > 0.  A
width-L variant (depth 1) draws L independent initial layers and uses them
as the coefficients of an L-component mixture.

The layer feeding the final kernel may be truncated to a discrete Hoelder
or Sobolev norm ball.  There is one prior law: the hidden layers f^0 ..
f^{D-1} are the image of standard normal coefficients under one forward
map, and a truncation conditions them jointly on the ball, so a state
whose constrained layer leaves it is rejected whole.  The prior sampler
and the chain share that map.  Posterior inference over the hidden layers
marginalises the final layer analytically (the data are conditionally
Gaussian given the hidden layers) and runs a preconditioned Crank-Nicolson
walk on the whitened layer coefficients,
``xi' = sqrt(1 - beta^2) xi + beta eta``, accepted by the marginal
likelihood ratio.  Noise-free data are not supported: the
conditioning is only defined through the noisy likelihood, so callers pass
a positive (possibly N-dependent) noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _mesh_spacing, _spaced_norm
from .errors import (
    DomainError,
    EvaluationError,
    GpconvError,
    MeshError,
    ParameterError,
    TruncationError,
)
from .functions import FunctionHandle, piecewise_linear
from .gp import TrainingData, _condition, _path_cholesky, _path_draw, posterior_mean
from .kernels import KernelSpec, MaternKernel, MixtureKernel, WarpKernel

TUNE_WINDOW = 50
TUNE_LOW = 0.15
TUNE_HIGH = 0.40


@dataclass(frozen=True)
class Truncation:
    """Norm-ball constraint on the layer feeding the final kernel."""

    norm_kind: str  # "holder_discrete" or "sobolev_discrete"
    order: int
    radius: float
    max_rejections: int = 1000

    def __post_init__(self):
        if self.norm_kind not in ("holder_discrete", "sobolev_discrete"):
            raise ParameterError(f"unknown truncation norm {self.norm_kind!r}")
        if not (
            self.order >= 0 and 0 < self.radius < math.inf and self.max_rejections >= 1
        ):
            raise ParameterError(
                "truncation needs order >= 0, a finite radius > 0, max_rejections >= 1"
            )

    def admits(self, values: np.ndarray, spacing: float) -> bool:
        """Whether the layer, or each row of a (width, m) layer, is in the ball.

        ``values`` lie on a uniform mesh of the given spacing, validated
        once by ``_check_mesh`` rather than on every call.
        """
        return all(
            _spaced_norm(row, spacing, self.norm_kind, self.order) <= self.radius
            for row in np.atleast_2d(values)
        )


@dataclass(frozen=True)
class LayerSpec:
    """One transition of the hierarchy: how layer n builds the kernel of n+1.

    ``truncation`` constrains this transition's input layer; the hierarchy
    only permits it on the final transition, i.e. on the layer the final
    kernel is built from.
    """

    construction: str  # "warp" or "mixture_f"
    base_nu: float
    base_lambda: float = 1.0
    base_sigma_sq: float = 1.0
    link_eta: float = 1.0
    truncation: Truncation | None = None

    def __post_init__(self):
        if self.construction not in ("warp", "mixture_f"):
            raise ParameterError(f"unknown construction {self.construction!r}")
        if self.construction == "mixture_f" and not 0 < self.link_eta < math.inf:
            raise ParameterError("link_eta must be positive and finite")
        # base kernel parameters validated by MaternKernel
        self.base_kernel()

    def base_kernel(self) -> MaternKernel:
        return MaternKernel(self.base_nu, self.base_lambda, self.base_sigma_sq)


@dataclass(frozen=True)
class DgpSpec:
    """Depth-D (or width-L) hierarchy description."""

    depth: int
    layer0_nu: float
    layers: tuple[LayerSpec, ...]
    layer0_lambda: float = 1.0
    layer0_sigma_sq: float = 1.0
    width: int = 1
    rescale_warp: bool = False
    domain: tuple[float, float] = (0.0, 5.0)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.depth < 1:
            raise ParameterError("depth must be at least 1")
        if len(self.layers) != self.depth:
            raise ParameterError(f"need {self.depth} layer specs, got {len(self.layers)}")
        if self.width < 1:
            raise ParameterError("width must be at least 1")
        if self.width > 1 and (self.depth != 1 or self.layers[0].construction != "mixture_f"):
            raise ParameterError("width > 1 requires depth 1 with a mixture_f construction")
        for layer in self.layers[:-1]:
            if layer.truncation is not None:
                raise ParameterError(
                    "truncation is only legal on the layer feeding the final kernel"
                )
        if not self.domain[0] < self.domain[1]:
            raise ParameterError("domain must satisfy a < b")
        self.layer0_kernel()

    def layer0_kernel(self) -> MaternKernel:
        return MaternKernel(self.layer0_nu, self.layer0_lambda, self.layer0_sigma_sq)


def _affine_rescale(values: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
    a, b = domain
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo <= 0.0:
        raise DomainError("warp layer is constant; affine rescaling is degenerate")
    return (values - lo) / (hi - lo) * (b - a) + a


def layer_kernel(
    layer: LayerSpec,
    prev_values: np.ndarray,
    mesh: np.ndarray,
    rescale_warp: bool,
    domain: tuple[float, float],
) -> KernelSpec:
    """Kernel of the next layer, built from the previous layer's mesh values.

    Mesh values are extended to arbitrary inputs by piecewise-linear
    interpolation.  For warping, the layer itself is the warping map
    (optionally rescaled affinely onto the domain); for mixture_f the
    coefficient is F(layer) = layer^2 + eta.  A (width, m) array of
    previous values yields a multi-component mixture.
    """
    base = layer.base_kernel()
    prev_values = np.asarray(prev_values, dtype=float)
    if not np.all(np.isfinite(prev_values)):
        raise EvaluationError("layer values are not finite")

    if layer.construction == "warp":
        if prev_values.ndim != 1:
            raise ParameterError("warp construction takes a single previous layer")
        vals = _affine_rescale(prev_values, domain) if rescale_warp else prev_values
        return WarpKernel(w=piecewise_linear(mesh, vals, label="layer warp"), base=base)

    rows = prev_values[None, :] if prev_values.ndim == 1 else prev_values
    eta = layer.link_eta
    components = []
    for row in rows:
        interp = piecewise_linear(mesh, row, label="layer coefficient")
        sigma_fn = FunctionHandle(
            fn=lambda u, f=interp: f(u) ** 2 + eta, label=f"F(layer), eta={eta}"
        )
        components.append((sigma_fn, base))
    return MixtureKernel(components=tuple(components))


def _check_mesh(mesh, spec: DgpSpec) -> tuple[np.ndarray, float | None]:
    """A sorted 1-D mesh and, if truncated, its spacing: the discrete norms
    need a uniform mesh of at least order + 2 points, as ``discrete_norm``
    checks.  The spacing is None for an untruncated hierarchy."""
    mesh = np.asarray(mesh, dtype=float).ravel()
    if mesh.size < 2 or np.any(np.diff(mesh) <= 0):
        raise ParameterError("mesh must be sorted with at least two distinct points")
    trunc = spec.layers[-1].truncation
    if trunc is None:
        return mesh, None
    if mesh.size < trunc.order + 2:
        raise MeshError(
            f"a truncation of order {trunc.order} needs a mesh of at least "
            f"{trunc.order + 2} points, got {mesh.size}"
        )
    return mesh, _mesh_spacing(mesh)


def _prior_whitened(spec: DgpSpec, m: int, rng) -> list[np.ndarray]:
    """Standard normal coefficients of the hidden layers: (width, m) or (m,)
    for f0, then (m,) for each deeper hidden layer."""
    first = rng.standard_normal((spec.width, m) if spec.width > 1 else m)
    return [first] + [rng.standard_normal(m) for _ in range(spec.depth - 1)]


def _hidden_layers(
    spec: DgpSpec, mesh: np.ndarray, chol0: np.ndarray, whitened: list[np.ndarray]
) -> list[np.ndarray]:
    """The hierarchy's forward map: hidden layers f0 .. f^{D-1} on the mesh
    from their whitened coefficients (``chol0`` factors the f0 Gram)."""
    hidden = [_path_draw(chol0, whitened[0])]
    for layer, xi in zip(spec.layers, whitened[1:]):
        kernel = layer_kernel(layer, hidden[-1], mesh, spec.rescale_warp, spec.domain)
        hidden.append(_path_draw(_path_cholesky(kernel, mesh), xi))
    return hidden


def sample_dgp_prior(spec: DgpSpec, mesh, seed: int) -> list[np.ndarray]:
    """One draw of every layer of the hierarchy on the mesh.

    Returns [f0, f1, ..., fD]; for width L > 1 the first entry is an
    (L, m) array of the independent initial layers.  With a truncation the
    hidden layers are conditioned jointly on the ball: the whole hidden
    state is redrawn until its constrained layer lands in the ball, up to
    max_rejections, and only then is the final layer drawn.  A truncated
    hierarchy needs a uniform mesh.
    """
    mesh, spacing = _check_mesh(mesh, spec)
    rng = np.random.default_rng(seed)
    chol0 = _path_cholesky(spec.layer0_kernel(), mesh)
    trunc = spec.layers[-1].truncation
    attempts = trunc.max_rejections if trunc is not None else 1
    for _ in range(attempts):
        hidden = _hidden_layers(spec, mesh, chol0, _prior_whitened(spec, len(mesh), rng))
        if trunc is None or trunc.admits(hidden[-1], spacing):
            break
    else:
        raise TruncationError(
            f"no prior draw satisfied the norm ball after {attempts} attempts "
            f"(empirical acceptance rate 0/{attempts}); enlarge the radius"
        )
    final_kernel = layer_kernel(spec.layers[-1], hidden[-1], mesh, spec.rescale_warp, spec.domain)
    final = _path_draw(_path_cholesky(final_kernel, mesh), rng.standard_normal(len(mesh)))
    return hidden + [final]


class DgpChain:
    """Preconditioned Crank-Nicolson walk over the hidden layers.

    The state is the whitened coefficient vector of every hidden layer
    (layers 0 .. D-1 on the mesh); the final layer is marginalised, so the
    target density of the hidden layers is the Gaussian marginal likelihood

        Phi = 1/2 log det(K_D + delta^2 I) + 1/2 y^T (K_D + delta^2 I)^{-1} y

    with K_D the final-layer Gram matrix at the training points.  Each state
    holds its final layer as a ``GpPosterior`` (``gp._condition``, ridged by
    the noise alone), whose ``neg_log_like`` is Phi.  The prior
    is sample_dgp_prior's: with a truncation the hidden layers are
    conditioned jointly on the ball, so proposals whose constrained layer
    leaves it count as rejections, as do proposals whose kernel assembly
    fails.  The start state is the first prior draw that passes both; for
    ``rng_seed`` equal to the sampler's seed it holds the sampler's hidden
    layers whenever that draw assembles.  A truncated hierarchy needs a
    uniform mesh.  The chain itself never changes ``step_beta``;
    dgp_posterior_mean tunes it during burn-in.
    The whole trajectory is reproducible from (spec, data, mesh, step_beta,
    rng_seed) at a fixed BLAS thread count and fixed numpy, scipy and
    OpenBLAS versions: a change of either reorders floating-point sums,
    which can flip an accept/reject decision and send the chain down
    another path.
    """

    def __init__(
        self,
        spec: DgpSpec,
        data: TrainingData,
        mesh,
        step_beta: float,
        rng_seed: int,
    ):
        if data.noise_var <= 0:
            raise ParameterError(
                "hidden-layer conditioning requires noise_var > 0; use a "
                "noise schedule for nominally noise-free data"
            )
        if not 0.0 <= step_beta <= 1.0:
            raise ParameterError(f"step_beta must lie in [0, 1], got {step_beta}")
        self.spec = spec
        self.data = data
        self.mesh, self._spacing = _check_mesh(mesh, spec)
        self.step_beta = float(step_beta)
        self.rng_seed = int(rng_seed)
        self.rng = np.random.default_rng(rng_seed)
        self.trace: list[dict] = []
        self.warnings: list[str] = []
        self.iteration = 0
        self.n_trunc_rejections = 0
        self.n_assembly_failures = 0
        self.n_accepted = 0

        self._chol0 = _path_cholesky(spec.layer0_kernel(), self.mesh)
        # Rejection-sample an admissible starting state from the prior.
        trunc = spec.layers[-1].truncation
        budget = trunc.max_rejections if trunc is not None else 50
        state = None
        for _ in range(budget):
            self.whitened_state = _prior_whitened(spec, len(self.mesh), self.rng)
            state = self._assemble(self.whitened_state)
            if state is not None:
                break
        if state is None:
            raise TruncationError(
                f"no admissible starting state found in {budget} prior draws"
            )
        self._current = state

    # -- state assembly -------------------------------------------------

    def _assemble(self, whitened: list[np.ndarray]):
        """Hidden layer values and final-layer posterior for a whitened state.

        Returns None when the state is inadmissible (truncation violated or
        kernel assembly failed), which the caller treats as a rejection.
        """
        spec = self.spec
        try:
            hidden = _hidden_layers(spec, self.mesh, self._chol0, whitened)
            trunc = spec.layers[-1].truncation
            if trunc is not None and not trunc.admits(hidden[-1], self._spacing):
                self.n_trunc_rejections += 1
                return None

            final_kernel = layer_kernel(
                spec.layers[-1], hidden[-1], self.mesh, spec.rescale_warp, spec.domain
            )
            post = _condition(final_kernel, self.data, (0.0,))
        except GpconvError:
            post = None
        if post is None or not np.isfinite(post.neg_log_like):
            self.n_assembly_failures += 1
            return None
        return {"hidden": hidden, "post": post, "mean": None}

    def conditional_mean(self) -> np.ndarray:
        """Posterior mean on the mesh given the current hidden layers."""
        if self._current["mean"] is None:
            self._current["mean"] = posterior_mean(self._current["post"], self.mesh)
        return self._current["mean"]

    @property
    def log_likelihood(self) -> float:
        return -self._current["post"].neg_log_like

    # -- MCMC -----------------------------------------------------------

    def step(self) -> bool:
        """Advance one iteration; returns whether the proposal was accepted."""
        beta = self.step_beta
        root = np.sqrt(max(0.0, 1.0 - beta * beta))
        proposal = [
            root * xi + beta * self.rng.standard_normal(xi.shape)
            for xi in self.whitened_state
        ]
        log_u = np.log(self.rng.uniform())

        state = self._assemble(proposal)
        accepted = False
        if state is not None:
            log_ratio = self._current["post"].neg_log_like - state["post"].neg_log_like
            if log_u < min(0.0, log_ratio):
                self.whitened_state = proposal
                self._current = state
                accepted = True

        self.iteration += 1
        self.n_accepted += int(accepted)
        self.trace.append(
            {
                "iteration": self.iteration,
                "log_likelihood": self.log_likelihood,
                "accepted": accepted,
                "beta": self.step_beta,
            }
        )
        return accepted

    def trace_csv(self) -> str:
        """Chain trace as CSV text (iteration, log_likelihood, accepted, beta)."""
        lines = ["iteration,log_likelihood,accepted,beta"]
        for row in self.trace:
            lines.append(
                f"{row['iteration']},{float(row['log_likelihood'])!r},"
                f"{int(row['accepted'])},{float(row['beta'])!r}"
            )
        return "\n".join(lines) + "\n"


def dgp_posterior_mean(chain: DgpChain, n_burn: int, n_iter: int) -> np.ndarray:
    """Posterior mean of the final layer on the chain's mesh.

    Runs ``n_burn`` tuning iterations in windows of TUNE_WINDOW: after each
    full window the step size is halved if the window's acceptance rate is
    below TUNE_LOW and doubled if it is above TUNE_HIGH (kept in [1e-6, 1]);
    a final partial window leaves it as it is.  The step size is then
    frozen and the conditional posterior mean is averaged over ``n_iter``
    further iterations.  If more than half of all proposals violated the
    truncation ball, a warning is recorded on ``chain.warnings``.
    """
    if n_iter < 1:
        raise ParameterError(f"n_iter must be at least 1, got {n_iter}")
    if n_burn < 0:
        raise ParameterError(f"n_burn must be non-negative, got {n_burn}")
    for _ in range(n_burn // TUNE_WINDOW):
        rate = sum(chain.step() for _ in range(TUNE_WINDOW)) / TUNE_WINDOW
        if rate < TUNE_LOW:
            chain.step_beta = max(chain.step_beta / 2.0, 1e-6)
        elif rate > TUNE_HIGH:
            chain.step_beta = min(chain.step_beta * 2.0, 1.0)
    for _ in range(n_burn % TUNE_WINDOW):
        chain.step()
    total = np.zeros(len(chain.mesh))
    for _ in range(n_iter):
        chain.step()
        total += chain.conditional_mean()
    if chain.n_trunc_rejections > 0.5 * chain.iteration:
        chain.warnings.append(
            f"truncation ball rejected {chain.n_trunc_rejections}/{chain.iteration} proposals"
        )
    return total / n_iter
