"""One benchmark child process: import gpconv, optionally trace it, run the CLI.

Usage: python3 child.py RESULT_JSON TRACE [-- CLI_ARGS...]

With no CLI arguments the child only imports (a set-up probe).  The
result file holds the monotonic time just before ``cli.main`` is called,
the exit code, the effective OpenBLAS thread counts and, with TRACE=1,
the span summary plus the study records and chain counters that the
parent turns into per-layer metrics.  The package is imported from
``src/`` of the checkout this file sits in, never from site-packages.
"""

from __future__ import annotations

import ctypes
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gpconv import cli  # noqa: E402  (path set up above)

# Functions traced by name, and the names their spans are recorded under.
# Each is replaced in every gpconv module that holds it, because several
# modules import these functions by name.
_MODULE_FUNCTIONS = (
    ("kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("kernels", "_matern_profile", "kernels.matern_profile"),
    ("kernels", "_matern_bessel_profile", "kernels.bessel_profile"),
    ("bessel", "log_bessel_k", "bessel.log_bessel_k"),
    ("gp", "fit", "gp.fit"),
    ("gp", "posterior_mean", "gp.posterior_mean"),
    ("deep", "layer_kernel", "deep.layer_kernel"),
    ("deep", "_path_cholesky", "deep.path_cholesky"),
    ("analysis", "discrete_norm", "analysis.discrete_norm"),
    ("analysis", "error_norm", "analysis.error_norm"),
    ("analysis", "fit_rate", "analysis.fit_rate"),
    ("plotting", "render_loglog_svg", "plotting.render_loglog_svg"),
)

_ENTRY_COUNTED = (
    "kernels.kernel_matrix",
    "kernels.matern_profile",
    "kernels.bessel_profile",
    "bessel.log_bessel_k",
)


def _replace_everywhere(original, replacement) -> int:
    """Rebind every gpconv module attribute that is ``original``."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gpconv" or name.startswith("gpconv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


class _LinalgView:
    """Stands in for ``scipy.linalg`` inside one module, with a traced
    ``cholesky``; every other attribute is the real one."""

    def __init__(self, module, cholesky):
        self._module = module
        self.cholesky = cholesky

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _entry_counter(tracer, key: str):
    """Adds the size of the returned array to the counter ``key``."""
    import numpy as np

    def count(result, *args, **kwargs):
        tracer.count(key, np.size(result))

    return count


def install_tracing(tracer, studies: list, chains: list) -> None:
    """Wrap the gpconv layers in spans recorded by ``tracer``.

    ``studies`` and ``chains`` receive the records returned by the
    convergence runners and the counters of every finished chain.
    """
    import importlib

    from scipy import linalg

    for module_name, attr, span in _MODULE_FUNCTIONS:
        module = importlib.import_module(f"gpconv.{module_name}")
        original = getattr(module, attr)
        on_return = None
        if span in _ENTRY_COUNTED:
            on_return = _entry_counter(tracer, f"{span}.entries")
        elif span == "gp.fit":
            on_return = lambda post, *a, **k: tracer.count(
                "gp.fit.escalations", int(post.escalated)
            )
        if _replace_everywhere(original, tracer.wrap(span, original, on_return)) == 0:
            raise RuntimeError(f"gpconv.{module_name}.{attr} was not found to trace")

    from gpconv import deep, experiments, functions, gp

    def count_flops(factor, matrix, *args, **kwargs):
        tracer.count("linalg.cholesky.flop", len(matrix) ** 3 / 3.0)

    traced_cholesky = tracer.wrap("linalg.cholesky", linalg.cholesky, count_flops)
    for module in (gp, deep):
        module.linalg = _LinalgView(linalg, traced_cholesky)

    handle = functions.FunctionHandle
    handle.__call__ = tracer.wrap("functions.eval", handle.__call__)

    chain_cls = deep.DgpChain
    chain_cls.step = tracer.wrap("deep.step", chain_cls.step)
    chain_cls._assemble = tracer.wrap("deep.assemble", chain_cls._assemble)
    conditional_mean = chain_cls.conditional_mean

    def counted_conditional_mean(self):
        if self._current["mean"] is None:
            tracer.count("deep.conditional_mean.computed")
        return conditional_mean(self)

    chain_cls.conditional_mean = tracer.wrap(
        "deep.conditional_mean", counted_conditional_mean
    )

    def record_chain(mean, chain, *args, **kwargs):
        chains.append(
            {
                "iterations": chain.iteration,
                "accepted": chain.n_accepted,
                "trunc_rejections": chain.n_trunc_rejections,
                "assembly_failures": chain.n_assembly_failures,
                "final_beta": chain.step_beta,
            }
        )

    deep.dgp_posterior_mean = tracer.wrap(
        "deep.dgp_posterior_mean", deep.dgp_posterior_mean, record_chain
    )

    def record_study(result, config, *args, **kwargs):
        records, _ = result
        studies.append(
            {
                "id": config.id,
                "thread": threading.get_ident(),
                "level_s": [r.wall_time_ms / 1000.0 for r in records],
            }
        )

    for runner in ("run_convergence", "run_dgp_convergence"):
        span = f"experiments.{runner}"
        setattr(experiments, runner, tracer.wrap(span, getattr(experiments, runner), record_study))


def blas_threads() -> dict:
    """Effective thread counts of the OpenBLAS builds bundled with numpy
    and scipy, or None where a build cannot be found."""
    import numpy
    import scipy

    found = {}
    for package, pattern, symbol in (
        (numpy, "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        (scipy, "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
    ):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        count = None
        for path in sorted(libs.glob(pattern)):
            getter = getattr(ctypes.CDLL(str(path)), symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                count = getter()
                break
        found[package.__name__] = count
    return found


def main(argv: list[str]) -> int:
    result_path, trace = Path(argv[0]), argv[1] == "1"
    cli_args = argv[3:] if len(argv) > 2 and argv[2] == "--" else []
    import gpconv

    if Path(gpconv.__file__).resolve().parent != ROOT / "src" / "gpconv":
        raise SystemExit(f"imported gpconv from {gpconv.__file__}, not from {ROOT / 'src'}")

    tracer, studies, chains = None, [], []
    if trace:
        from spans import Tracer

        tracer = Tracer(keep_durations=("deep.step",))
        install_tracing(tracer, studies, chains)

    result = {"t_main": time.monotonic()}
    if cli_args:
        result["exit_code"] = cli.main(cli_args)
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["studies"] = studies
        result["chains"] = chains
    result_path.write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
