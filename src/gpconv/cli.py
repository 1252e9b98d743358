"""Command-line entry point.

Three subcommands: ``run`` executes an experiment config from JSON,
``figures`` reproduces the built-in convergence studies, and ``dgp`` runs
a layered-hierarchy config with its chain parameters.  ``figures`` runs
the selected studies one after another, in ``--which`` order, and prints
each study's row as it finishes.  All outputs (CSV per config, rates.csv,
one SVG per norm) are deterministic given the flags and seed.  Exit
codes: 0 success, 2 configuration problem, 3 numerical failure.

``figures`` and ``dgp`` run on one BLAS thread: they set the OpenBLAS
builds bundled with numpy and with scipy to one thread each for the length
of the command and restore the earlier counts afterwards.  Their written
files then do not depend on the machine's thread default (OpenBLAS splits
products by thread, which changes the last bits), and the pCN chain's many
small products stop paying for a spinning second thread.  If a library or
its thread setter cannot be found, the command runs unpinned and says so on
stderr.  ``run`` keeps the default threads: its single large factorisation
and prediction per level gain from a second thread.

The console report ends where its reader does: once stdout is a closed
pipe (as under ``| head -1``), the rest of the report is dropped, and the
command still writes every file and keeps its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import sys
from pathlib import Path

from . import experiments
from .errors import ConfigError, GpconvError
from .plotting import PlotRequest, render_loglog_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# The OpenBLAS builds bundled with numpy and scipy: the package, its
# library's file pattern in ``<package>.libs``, and the thread-count getter
# and setter that library exports.
OPENBLAS_POOLS = (
    (
        "numpy",
        "libscipy_openblas64_*.so",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_set_num_threads64_",
    ),
    (
        "scipy",
        "libscipy_openblas-*.so",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_set_num_threads",
    ),
)


def _blas_pool(package: str, pattern: str, get_name: str, set_name: str):
    """The (getter, setter) thread-count functions of one bundled OpenBLAS,
    or None if its library or either symbol cannot be found."""
    module = importlib.import_module(package)
    libs = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
    for path in sorted(libs.glob(pattern)):
        library = ctypes.CDLL(str(path))
        getter = getattr(library, get_name, None)
        setter = getattr(library, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS on one thread, then restore
    each pool's earlier count, also when the body raises."""
    pinned, missing = [], []
    for package, *names in OPENBLAS_POOLS:
        pool = _blas_pool(package, *names)
        if pool is None:
            missing.append(package)
        else:
            pinned.append((pool[1], pool[0]()))
    if missing:
        print(
            f"note: BLAS threads unpinned for {', '.join(missing)}: no OpenBLAS "
            "thread control found; outputs may depend on the thread count",
            file=sys.stderr,
        )
    for setter, _ in pinned:
        setter(1)
    try:
        yield
    finally:
        for setter, count in pinned:
            setter(count)


def _report(line: str) -> None:
    """Print one line of the console report.  On a closed stdout the line
    is lost, and the stream is pointed at the null device, so the rest of
    the report and the flush at exit are dropped too."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _load_config(path: str) -> experiments.ExperimentConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}")
    return experiments.config_from_dict(data)


def _write_outputs(out_dir: Path, config, records, fits, reference_slopes=()):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{config.id}.csv").write_text(
        experiments.records_csv(records, config.norms)
    )
    for norm, fit in fits.items():
        svg = render_loglog_svg(
            PlotRequest(
                records=records,
                rate_fit=fit,
                title=f"{config.id} ({norm})",
                norm=norm,
                reference_slopes=tuple(reference_slopes),
            )
        )
        (out_dir / f"{config.id}_{norm}.svg").write_text(svg)


def _finish_study(out_dir: Path, config, records, fits):
    """Writes one config's CSV, SVGs and rates.csv and prints its slopes."""
    _write_outputs(out_dir, config, records, fits)
    (out_dir / "rates.csv").write_text(experiments.rates_csv({config.id: fits}))
    for norm, fit in fits.items():
        _report(f"  {norm}: slope {fit.slope:.3f} (r^2 {fit.r_squared:.4f})")


def cmd_run(args) -> int:
    config = _load_config(args.config)
    records, fits = experiments.run_convergence(config, args.seed)
    total_ms = sum(r.wall_time_ms for r in records)
    _report(f"{config.id}: {len(records)} levels in {total_ms:.0f} ms")
    _finish_study(Path(args.out), config, records, fits)
    return EXIT_OK


def cmd_figures(args) -> int:
    configs = experiments.builtin_figures()
    if args.which != "all":
        configs = [c for c in configs if c.id == args.which]
        if not configs:
            known = ", ".join(c.id for c in experiments.builtin_figures())
            raise ConfigError(f"unknown figure id {args.which!r}; known ids: {known}, all")

    out_dir = Path(args.out)
    all_fits = {}
    _report(f"{'config':22s} {'expected':>8s} {'fitted':>8s} {'r^2':>7s}  status")
    for config in configs:
        records, fits = experiments.run_convergence(config, args.seed)
        band_info = experiments.FIGURE_BANDS[config.id]
        expected = band_info["expected"]
        lo, hi = band_info["band"]
        slope = fits["l2"].slope
        status = "pass" if lo <= slope <= hi else "FAIL"
        if "info_band" in band_info:
            ilo, ihi = band_info["info_band"]
            status += " (info band: " + ("in" if ilo <= slope <= ihi else "out") + ")"
        _report(
            f"{config.id:22s} {expected:8.1f} {slope:8.3f} "
            f"{fits['l2'].r_squared:7.4f}  {status}"
        )
        _write_outputs(out_dir, config, records, fits, reference_slopes=(expected,))
        all_fits[config.id] = fits
    (out_dir / "rates.csv").write_text(experiments.rates_csv(all_fits))
    return EXIT_OK


def cmd_dgp(args) -> int:
    config = _load_config(args.config)
    mcmc = experiments.McmcParams(n_burn=args.burn, n_iter=args.iters)
    records, fits = experiments.run_dgp_convergence(config, mcmc, args.seed)
    _report(f"{config.id}: errors " + " ".join(f"{r.errors['l2']:.3e}" for r in records))
    _finish_study(Path(args.out), config, records, fits)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpconv",
        description="Non-stationary and deep GP regression convergence experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config from JSON")
    p_run.add_argument("--config", required=True, help="path to the config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figures", help="run the built-in convergence studies")
    p_fig.add_argument("--which", default="all", help="figure id or 'all'")
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.set_defaults(func=cmd_figures)

    mcmc = experiments.McmcParams()
    p_dgp = sub.add_parser("dgp", help="run a layered-hierarchy config")
    p_dgp.add_argument("--config", required=True, help="path to the config JSON")
    p_dgp.add_argument("--burn", type=int, default=mcmc.n_burn)
    p_dgp.add_argument("--iters", type=int, default=mcmc.n_iter)
    p_dgp.add_argument("--out", required=True, help="output directory")
    p_dgp.set_defaults(func=cmd_dgp)
    for command in (p_run, p_fig, p_dgp):
        command.add_argument("--seed", type=int, default=0, help="non-negative seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        one_thread = args.command in ("figures", "dgp")
        threads = _one_blas_thread() if one_thread else contextlib.nullcontext()
        with threads:
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GpconvError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
