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
whose constrained layer leaves it is rejected whole.  That map,
``_forward``, is the one place where a state is admitted to the ball and
its final kernel is built: the prior sampler, the chain's start and every
chain step call it.  Posterior inference over the hidden layers
marginalises the final layer analytically (the data are conditionally
Gaussian given the hidden layers) and runs a preconditioned Crank-Nicolson
walk on the whitened layer coefficients (for layer 0, its Karhunen-Loeve
coefficients), ``xi' = sqrt(1 - beta^2) xi + beta eta``, accepted by the
marginal likelihood ratio.  Noise-free data are not supported: the
conditioning is only defined through the noisy likelihood, so callers pass
a positive (possibly N-dependent) noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .analysis import _mesh_spacing, _spaced_norm
from .errors import (
    DomainError,
    EvaluationError,
    GpconvError,
    ParameterError,
    TruncationError,
)
from .functions import FunctionHandle, piecewise_linear, scalar_problem
from .gp import (
    TrainingData,
    _condition,
    _path_cholesky,
    _path_spectral,
    posterior_mean,
)
from .kernels import KernelSpec, MaternKernel, MixtureKernel, WarpKernel

TUNE_START = 0.25
TUNE_WINDOW = 50
TUNE_LOW = 0.15
TUNE_HIGH = 0.40
MAX_PRIOR_DRAWS = 1000


@dataclass(frozen=True)
class Truncation:
    """Norm-ball constraint on the layer feeding the final kernel.

    MAX_PRIOR_DRAWS bounds the prior draws of one ``sample_dgp_prior``
    call and of a chain's start; a chain's steps have no budget, as each
    rejected proposal only keeps the current state.
    """

    norm_kind: str  # "holder_discrete" or "sobolev_discrete"
    order: int
    radius: float

    def __post_init__(self):
        if self.norm_kind not in ("holder_discrete", "sobolev_discrete"):
            raise ParameterError(f"unknown truncation norm {self.norm_kind!r}")
        wrong_type = scalar_problem(self.order, int) or scalar_problem(self.radius, float)
        if wrong_type or not (self.order >= 0 and 0 < self.radius < math.inf):
            raise ParameterError("truncation needs an integer order >= 0 and a finite radius > 0")

    def admits(self, values: np.ndarray, spacing: float) -> bool:
        """Whether the layer, or each row of a (width, m) layer, is in the ball.

        ``values`` lie on a uniform mesh of the given spacing, validated
        once by ``_on_mesh`` rather than on every call.
        """
        return all(
            _spaced_norm(row, spacing, self.norm_kind, self.order) <= self.radius
            for row in np.atleast_2d(values)
        )


@dataclass(frozen=True)
class LayerSpec:
    """One transition of the hierarchy: how layer n builds the kernel of n+1.

    ``base`` is the Matern kernel that the layer warps or scales.
    ``truncation`` constrains this transition's input layer; the hierarchy
    only permits it on the final transition, i.e. on the layer the final
    kernel is built from.
    """

    construction: str  # "warp" or "mixture_f"
    base: MaternKernel
    link_eta: float = 1.0
    truncation: Truncation | None = None

    def __post_init__(self):
        if self.construction not in ("warp", "mixture_f"):
            raise ParameterError(f"unknown construction {self.construction!r}")
        if not isinstance(self.base, MaternKernel):
            raise ParameterError(f"base must be a MaternKernel, got {self.base!r}")
        if problem := scalar_problem(self.link_eta, float):
            raise ParameterError(f"link_eta: {problem}")
        if self.construction == "mixture_f" and not 0 < self.link_eta < math.inf:
            raise ParameterError("link_eta must be positive and finite")


@dataclass(frozen=True)
class DgpSpec:
    """Depth-D (or width-L) hierarchy description.

    ``layer0`` is the stationary Matern kernel of the initial layer f^0;
    ``layers`` holds the D transitions that build each later layer's kernel.
    """

    depth: int
    layer0: MaternKernel
    layers: tuple[LayerSpec, ...]
    width: int = 1
    rescale_warp: bool = False

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not isinstance(self.layer0, MaternKernel):
            raise ParameterError(f"layer0 must be a MaternKernel, got {self.layer0!r}")
        for name in ("depth", "width"):
            value = getattr(self, name)
            if scalar_problem(value, int) or value < 1:
                raise ParameterError(f"{name} must be at least 1 and integral, got {value!r}")
        if problem := scalar_problem(self.rescale_warp, bool):
            raise ParameterError(f"rescale_warp: {problem}")
        if len(self.layers) != self.depth:
            raise ParameterError(f"need {self.depth} layer specs, got {len(self.layers)}")
        if self.width > 1 and (self.depth != 1 or self.layers[0].construction != "mixture_f"):
            raise ParameterError("width > 1 requires depth 1 with a mixture_f construction")
        for layer in self.layers[:-1]:
            if layer.truncation is not None:
                raise ParameterError(
                    "truncation is only legal on the layer feeding the final kernel"
                )


def _affine_rescale(values: np.ndarray, a: float, b: float) -> np.ndarray:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo <= 0.0:
        raise DomainError("warp layer is constant; affine rescaling is degenerate")
    return (values - lo) / (hi - lo) * (b - a) + a


def layer_kernel(
    layer: LayerSpec,
    prev_values: np.ndarray,
    mesh: np.ndarray,
    rescale_warp: bool,
) -> KernelSpec:
    """Kernel of the next layer, built from the previous layer's mesh values.

    Mesh values are extended to arbitrary inputs by piecewise-linear
    interpolation.  For warping, the layer itself is the warping map,
    optionally rescaled affinely onto [mesh[0], mesh[-1]] (for a chain,
    the experiment's domain); for mixture_f the coefficient is
    F(layer) = layer^2 + eta.  A (width, m) array of previous values
    yields a multi-component mixture.
    """
    prev_values = np.asarray(prev_values, dtype=float)
    if not np.all(np.isfinite(prev_values)):
        raise EvaluationError("layer values are not finite")

    if layer.construction == "warp":
        if prev_values.ndim != 1:
            raise ParameterError("warp construction takes a single previous layer")
        vals = _affine_rescale(prev_values, mesh[0], mesh[-1]) if rescale_warp else prev_values
        return WarpKernel(w=piecewise_linear(mesh, vals, label="layer warp"), base=layer.base)

    rows = prev_values[None, :] if prev_values.ndim == 1 else prev_values
    eta = layer.link_eta
    components = []
    for row in rows:
        interp = piecewise_linear(mesh, row, label="layer coefficient")
        sigma_fn = FunctionHandle(
            fn=lambda u, f=interp: f(u) ** 2 + eta, label=f"F(layer), eta={eta}"
        )
        components.append((sigma_fn, layer.base))
    return MixtureKernel(components=tuple(components))


def _on_mesh(spec: DgpSpec, mesh, factor0=None) -> tuple[np.ndarray, float | None, np.ndarray]:
    """The hierarchy's setup on a mesh: the sorted 1-D mesh, its spacing if
    truncated (the discrete norms need a uniform mesh of at least order + 2
    points, ``_mesh_spacing``; None for an untruncated hierarchy) and the
    rank-r spectral factor of the f0 Gram matrix (``_path_spectral``, which
    rejects a non-finite mesh point).  A ``factor0`` from an earlier call on
    the same spec and mesh is passed through instead of factored again."""
    mesh = np.asarray(mesh, dtype=float).ravel()
    if mesh.size < 2 or not np.all(np.diff(mesh) > 0):
        raise ParameterError("mesh must be sorted with at least two distinct points")
    trunc = spec.layers[-1].truncation
    spacing = None if trunc is None else _mesh_spacing(mesh, trunc.order + 2)
    return mesh, spacing, _path_spectral(spec.layer0, mesh) if factor0 is None else factor0


def _forward(
    spec: DgpSpec, mesh: np.ndarray, spacing: float | None, factor0: np.ndarray, whitened: list
) -> tuple[list[np.ndarray], KernelSpec] | None:
    """The hierarchy's forward map: hidden layers f0 .. f^{D-1} on the mesh
    from their whitened coefficients, and the final kernel built from the
    last of them; None when the truncation ball rejects that layer.

    ``factor0`` is the rank-r spectral factor of the f0 Gram matrix
    (``_path_spectral``); each deeper layer is drawn from the packed
    Cholesky factor of its own kernel's Gram matrix (``_path_cholesky``)
    by ``dtpmv``.  ``factor0`` and ``spacing``
    (None for an untruncated hierarchy) come from ``_on_mesh``.
    """
    hidden = [whitened[0] @ factor0.T]
    for layer, xi in zip(spec.layers, whitened[1:]):
        kernel = layer_kernel(layer, hidden[-1], mesh, spec.rescale_warp)
        hidden.append(blas.dtpmv(len(mesh), _path_cholesky(kernel, mesh), xi, lower=1))
    trunc = spec.layers[-1].truncation
    if trunc is not None and not trunc.admits(hidden[-1], spacing):
        return None
    return hidden, layer_kernel(spec.layers[-1], hidden[-1], mesh, spec.rescale_warp)


def _prior_state(
    spec: DgpSpec, mesh: np.ndarray, spacing: float | None, factor0: np.ndarray, rng
) -> tuple[list[np.ndarray], tuple[list[np.ndarray], KernelSpec]]:
    """One prior draw of the hidden state: its whitened coefficients and
    their ``_forward`` image (hidden layers, final kernel).

    The coefficients are standard normal: (width, r) or (r,) for f0, whose
    factor has r columns, then (m,) for each deeper hidden layer.  With a
    truncation the whole state is redrawn until the ball admits its
    constrained layer, up to MAX_PRIOR_DRAWS draws; without one there is a
    single draw.
    """
    attempts = MAX_PRIOR_DRAWS if spec.layers[-1].truncation is not None else 1
    rank0 = factor0.shape[1]
    for _ in range(attempts):
        whitened = [rng.standard_normal((spec.width, rank0) if spec.width > 1 else rank0)]
        whitened += [rng.standard_normal(len(mesh)) for _ in range(spec.depth - 1)]
        state = _forward(spec, mesh, spacing, factor0, whitened)
        if state is not None:
            return whitened, state
    raise TruncationError(
        f"no prior draw satisfied the norm ball after {attempts} attempts "
        f"(empirical acceptance rate 0/{attempts}); enlarge the radius"
    )


def sample_dgp_prior(spec: DgpSpec, mesh, seed: int) -> list[np.ndarray]:
    """One draw of every layer of the hierarchy on the mesh.

    Returns [f0, f1, ..., fD]; for width L > 1 the first entry is an
    (L, m) array of the independent initial layers.  With a truncation the
    hidden layers are conditioned jointly on the ball (``_prior_state``),
    and only then is the final layer drawn.  A truncated hierarchy needs a
    uniform mesh.
    """
    mesh, spacing, factor0 = _on_mesh(spec, mesh)
    rng = np.random.default_rng(seed)
    _, (hidden, final_kernel) = _prior_state(spec, mesh, spacing, factor0, rng)
    xi = rng.standard_normal(len(mesh))
    final = blas.dtpmv(len(mesh), _path_cholesky(final_kernel, mesh), xi, lower=1)
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
    is sample_dgp_prior's, through the same forward map ``_forward``: with
    a truncation the hidden layers are conditioned jointly on the ball.
    The start state is a prior draw, not a proposal: ``_prior_state``, the
    sampler's own rejection loop, so for ``rng_seed`` equal to the
    sampler's seed it holds the sampler's hidden layers, and a start whose
    kernel fails to assemble or factor raises the error it met.  The
    counters count proposals only: those whose constrained layer leaves
    the ball (``n_trunc_rejections``) and those whose kernel assembly
    fails or gives a non-finite likelihood (``n_assembly_failures``).  A
    truncated hierarchy needs a uniform mesh.  The chain itself never
    changes ``step_beta``; dgp_posterior_mean tunes it during burn-in, and
    ``run_dgp_convergence`` starts every chain at TUNE_START.

    Layer 0's kernel is fixed for the whole chain, so its whitened state is
    the r-vector (or (width, r) array) of coefficients of its truncated
    Karhunen-Loeve expansion: one ``_path_spectral`` factor keeps the r
    eigenpairs of its mesh Gram matrix above the path jitter (r = 73 for
    the reference TDGP run), and a step draws f0 by an m x r product.  The
    factor depends only on layer 0's kernel and the mesh, so it is made
    once per run, not per chain: ``run_dgp_convergence`` factors it once
    (``_on_mesh``) and hands it to every level's chain as ``factor0``; a
    chain built without one factors its own.
    pCN on these coefficients is the same walk as on Cholesky-whitened ones
    (Cotter, Roberts, Stuart & White 2013); layers from truncated KL
    expansions are the construction of Dunlop, Girolami, Stuart &
    Teckentrup 2018.  Deeper layers depend on the state, so each is drawn
    from the Cholesky factor of its own Gram matrix.

    The whole trajectory is reproducible from (spec, data, mesh, step_beta,
    rng_seed) at fixed numpy, scipy and OpenBLAS versions, a fixed CPU
    (OpenBLAS picks its kernels per CPU) and a fixed ``eigh`` driver.
    Layer 0's path product ``xi @ factor0.T`` runs on numpy's bundled
    OpenBLAS; the deeper layers' path products (``dtpmv``), the
    factorisations and the solves run on scipy's.  The ``figures`` and
    ``dgp`` commands pin both to one thread; called from elsewhere, the
    trajectory also depends on the BLAS thread counts.  A change of any of
    these reorders floating-point sums.  That moves the likelihoods in
    their last bits, and it can flip an accept/reject decision, which
    sends the chain down another path.
    """

    def __init__(
        self,
        spec: DgpSpec,
        data: TrainingData,
        mesh,
        step_beta: float,
        rng_seed: int,
        factor0: np.ndarray | None = None,
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
        self.mesh, self._spacing, self._factor0 = _on_mesh(spec, mesh, factor0)
        self.step_beta = float(step_beta)
        self.rng = np.random.default_rng(rng_seed)
        self.iteration = 0
        self.n_trunc_rejections = 0
        self.n_assembly_failures = 0
        self.n_accepted = 0

        self.whitened_state, (hidden, final_kernel) = _prior_state(
            spec, self.mesh, self._spacing, self._factor0, self.rng
        )
        post = _condition(final_kernel, data, (0.0,))
        self._current = {"hidden": hidden, "post": post, "mean": None}

    # -- state assembly -------------------------------------------------

    def _assemble(self, whitened: list[np.ndarray]):
        """Hidden layer values and final-layer posterior for a proposal.

        Returns None when the proposal is inadmissible (truncation violated
        or kernel assembly failed), counted as such and treated by the
        caller as a rejection.
        """
        try:
            state = _forward(self.spec, self.mesh, self._spacing, self._factor0, whitened)
            if state is None:
                self.n_trunc_rejections += 1
                return None
            hidden, final_kernel = state
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
        return accepted


def dgp_posterior_mean(chain: DgpChain, n_burn: int, n_iter: int) -> np.ndarray:
    """Posterior mean of the final layer on the chain's mesh.

    Runs ``n_burn`` tuning iterations in windows of TUNE_WINDOW: after each
    full window the step size is halved if the window's acceptance rate is
    below TUNE_LOW and doubled if it is above TUNE_HIGH (kept in [1e-6, 1]);
    a final partial window leaves it as it is.  The step size is then
    frozen and the conditional posterior mean is averaged over ``n_iter``
    further iterations.  The chain's counters (``n_trunc_rejections``,
    ``n_assembly_failures``, ``iteration``) report what the ball and the
    kernel assembly rejected.
    """
    if scalar_problem(n_iter, int) or n_iter < 1:
        raise ParameterError(f"n_iter must be at least 1 and integral, got {n_iter!r}")
    if scalar_problem(n_burn, int) or n_burn < 0:
        raise ParameterError(f"n_burn must be non-negative and integral, got {n_burn!r}")
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
    return total / n_iter
