"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one ``ACCEPTANCE nn PASS/FAIL`` line.  Criteria 1-6 share a single run of
the six built-in convergence studies (seed 42, L2 norm, rate fitted on the
five finest levels); criterion 13 exercises the CLI end to end.
"""

import filecmp
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from gpconv.analysis import error_norm, matern_equivalence_constants, uniform_design
from gpconv.cli import _one_blas_thread, main
from gpconv.experiments import (
    FIGURE_BANDS,
    NoiseModel,
    builtin_figures,
    mean_posterior_variance,
    reference_tdgp_config,
    run_convergence,
    run_dgp_convergence,
)
from gpconv.gp import TrainingData, fit, posterior_mean
from gpconv.kernels import bell_number, matern_eval

SEED = 42
FIGURE_TIME_BUDGET_S = 60.0


def _report(number: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


@pytest.fixture(scope="module")
def figure_results():
    results = {}
    for config in builtin_figures():
        start = time.perf_counter()
        records, fits = run_convergence(config, seed=SEED)
        results[config.id] = {
            "records": records,
            "fits": fits,
            "seconds": time.perf_counter() - start,
        }
    return results


def _slope_criterion(number, config_id, figure_results):
    result = figure_results[config_id]
    slope = result["fits"]["l2"].slope
    lo, hi = FIGURE_BANDS[config_id]["band"]
    in_band = lo <= slope <= hi
    in_time = result["seconds"] < FIGURE_TIME_BUDGET_S
    detail = (
        f"{config_id} fitted L2 slope {slope:.3f} in [{lo}, {hi}]"
        f" ({result['seconds']:.1f}s)"
    )
    if "info_band" in FIGURE_BANDS[config_id]:
        ilo, ihi = FIGURE_BANDS[config_id]["info_band"]
        detail += f"; informational band [{ilo}, {ihi}]: {'in' if ilo <= slope <= ihi else 'out'}"
    assert _report(number, in_band and in_time, detail)


def test_criterion_01_warp_rate(figure_results):
    _slope_criterion(1, "fig_warp", figure_results)


def test_criterion_02_smooth_mixture_rate(figure_results):
    _slope_criterion(2, "fig_mix3_smooth", figure_results)


def test_criterion_03_convolution_rate(figure_results):
    _slope_criterion(3, "fig_conv", figure_results)


def test_criterion_04_indicator_mixture_rate(figure_results):
    _slope_criterion(4, "fig_mix3_indicator", figure_results)


def test_criterion_05_noninvertible_warp_rate(figure_results):
    _slope_criterion(5, "fig_warp_noninv", figure_results)


def test_criterion_06_piecewise_warp_rate(figure_results):
    _slope_criterion(6, "fig_warp_piecewise", figure_results)


def test_criterion_07_interpolation_property():
    """Noise-free fits at N = 256 reproduce training values to 1e-6."""
    design = uniform_design((0.0, 5.0), 256)
    worst = 0.0
    for config in builtin_figures():
        values = np.asarray(config.truth(design.points), dtype=float)
        post = fit(config.kernel, TrainingData(design.points, values), jitter=1e-15)
        resid = float(np.max(np.abs(posterior_mean(post, design.points) - values)))
        worst = max(worst, resid)
    assert _report(7, worst <= 1e-6, f"max interpolation residual {worst:.3e} <= 1e-6")


def test_criterion_08_posterior_variance_decreases():
    config = next(c for c in builtin_figures() if c.id == "fig_warp")
    var_coarse = mean_posterior_variance(config, 64, seed=SEED)
    var_fine = mean_posterior_variance(config, 256, seed=SEED)
    assert _report(
        8,
        var_fine <= var_coarse,
        f"mean posterior variance N=256 {var_fine:.3e} <= N=64 {var_coarse:.3e}",
    )


def test_criterion_09_matern_consistency():
    r = np.linspace(1e-6, 10.0, 100)
    worst = 0.0
    for nu in [0.5, 1.5, 2.5]:
        closed = np.array([matern_eval(nu, 1.0, 1.0, ri) for ri in r])
        z = math.sqrt(2 * nu) * r
        bessel = 2 ** (1 - nu) / math.gamma(nu) * z**nu * special.kv(nu, z)
        worst = max(worst, float(np.max(np.abs(closed / bessel - 1.0))))
    bessel_ok = worst <= 1e-10

    def brute_force(n):
        if n == 0:
            return 1
        count = 0

        def place(item, blocks):
            nonlocal count
            if item == n:
                count += 1
                return
            for block in blocks:
                block.append(item)
                place(item + 1, blocks)
                block.pop()
            blocks.append([item])
            place(item + 1, blocks)
            blocks.pop()

        place(0, [])
        return count

    bell_ok = all(bell_number(n) == brute_force(n) for n in range(11))
    low, up = matern_equivalence_constants(0.5, 1.0, 1.0, 1)
    const_ok = abs(low - math.pi**-0.5) <= 1e-12 and abs(up - math.pi**-0.5) <= 1e-12
    assert _report(
        9,
        bessel_ok and bell_ok and const_ok,
        f"closed-vs-Bessel rel err {worst:.2e} <= 1e-10; Bell numbers n<=10 exact; "
        f"equivalence constant {low:.12f} = pi^-1/2 to 1e-12",
    )


def test_criterion_10_norm_oracle():
    mesh = np.linspace(0.0, 5.0, 4096)
    value = error_norm(lambda u: np.sin(2 * u), np.zeros(4096), mesh, "l2")
    assert _report(
        10, abs(value - 1.544630) <= 1e-4, f"L2(sin 2u vs 0) = {value:.6f} within 1e-4 of 1.544630"
    )


def test_criterion_11_noisy_regression(figure_results):
    config = next(c for c in builtin_figures() if c.id == "fig_warp")
    noisy = replace(
        config,
        id="fig_warp_fixed_noise",
        noise=NoiseModel("fixed", delta_sq=1e-6, sample_noise=False),
    )
    _, fits = run_convergence(noisy, seed=SEED)
    noisy_slope = fits["l2"].slope
    clean_slope = figure_results["fig_warp"]["fits"]["l2"].slope
    ok = noisy_slope >= 1.0 and noisy_slope <= clean_slope
    assert _report(
        11,
        ok,
        f"fixed-noise slope {noisy_slope:.3f} >= 1.0 and <= noise-free slope {clean_slope:.3f}",
    )


def test_criterion_12_tdgp_convergence():
    # on one BLAS thread, as ``gpconv dgp`` runs it: the chain checked here
    # is the one the command writes
    config, mcmc = reference_tdgp_config()
    start = time.perf_counter()
    with _one_blas_thread():
        records, _ = run_dgp_convergence(config, mcmc, seed=SEED)
    elapsed = time.perf_counter() - start
    errs = [r.errors["l2"] for r in records]
    decreasing = errs[0] > errs[1] > errs[2]
    contraction = errs[2] <= errs[0] / 4.0
    in_time = elapsed < 600.0
    assert _report(
        12,
        decreasing and contraction and in_time,
        f"L2 errors {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e}, "
        f"N=256 error <= quarter of N=16 ({errs[2] / errs[0]:.4f}); {elapsed:.0f}s",
    )


def test_builtin_figures_tail_errors_non_increasing(figure_results):
    """Unnumbered harness property: the L2 error of every noise-free
    built-in study is non-increasing across the five finest levels."""
    for config_id, result in figure_results.items():
        tail = [r.errors["l2"] for r in result["records"][-5:]]
        assert all(b <= a for a, b in zip(tail, tail[1:])), f"{config_id}: {tail}"


def test_criterion_13_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    start = time.perf_counter()
    assert main(["figures", "--which", "all", "--out", str(out1), "--seed", "42"]) == 0
    assert main(["figures", "--which", "all", "--out", str(out2), "--seed", "42"]) == 0
    elapsed = time.perf_counter() - start
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    identical = not mismatch and not errors and len(match) == len(names)
    csv_count = sum(1 for n in names if n.endswith(".csv"))
    svg_count = sum(1 for n in names if n.endswith(".svg"))
    assert _report(
        13,
        identical,
        f"two 'figures --which all --seed 42' runs byte-identical across "
        f"{csv_count} CSV + {svg_count} SVG files ({elapsed:.0f}s for both)",
    )
