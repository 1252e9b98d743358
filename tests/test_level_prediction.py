"""One prediction pass for every schedule level.

``gp.posterior_means`` evaluates each block of the cross matrix once against
the union of the levels' designs.  At one BLAS thread every level's mean
must equal its own plain product ``kernel_matrix(spec, mesh, U_l) @ w_l``
bit for bit, and a convergence run must evaluate exactly the cross-matrix
entries of that union, no more.
"""

import json
import re
import time

import numpy as np
import pytest

from gpconv import gp, kernels
from gpconv.analysis import uniform_design
from gpconv.cli import _one_blas_thread, main
from gpconv.experiments import (
    DesignRule,
    ExperimentConfig,
    builtin_figures,
    config_to_dict,
    run_convergence,
)
from gpconv.functions import make_function
from gpconv.gp import TrainingData, fit, posterior_means
from gpconv.kernels import GaussianKernel, MaternKernel, kernel_matrix

FIGURES = {c.id: c for c in builtin_figures()}
KERNELS = {
    "matern": MaternKernel(2.5, lam=0.7),
    "gaussian": GaussianKernel(lam=0.9),
    "warp": FIGURES["fig_warp"].kernel,
    # indicator coefficients, and a nu = 3 component on the Bessel route
    "mixture": FIGURES["fig_mix3_indicator"].kernel,
    "convolution": FIGURES["fig_conv"].kernel,
}
DOMAIN = (0.0, 5.0)
RNG = np.random.default_rng(11)


def _nested():
    return [uniform_design(DOMAIN, 2**k).points for k in range(1, 7)]


def _disjoint():
    return [np.sort(RNG.uniform(*DOMAIN, n)) for n in (5, 9, 17, 33)]


def _repeated():
    design = np.sort(RNG.uniform(*DOMAIN, 12))
    return [design[::3], np.concatenate([design, design[4:5]])]


def _unsorted():
    design = uniform_design(DOMAIN, 16).points
    return [design[::4][::-1], RNG.permutation(design)]


SCHEDULES = {"nested": _nested(), "disjoint": _disjoint(), "repeated": _repeated(),
             "unsorted": _unsorted()}


def _fitted(spec, designs):
    """(points, weights) per level; noisy data, so a repeated point factors."""
    return [
        (points, fit(spec, TrainingData(points, np.sin(2.0 * points), 1e-6)).weights)
        for points in designs
    ]


def _union_size(designs) -> int:
    return len(np.unique(np.concatenate(designs)))


def _query_lengths():
    """0, 1, and one either side of every schedule's block height."""
    lengths = {0, 1}
    for designs in SCHEDULES.values():
        rows = gp._block_rows(_union_size(designs))
        lengths |= {rows - 1, rows + 1}
    return sorted(lengths)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("variant", sorted(KERNELS))
def test_every_level_matches_its_own_product(variant, schedule):
    spec, designs = KERNELS[variant], SCHEDULES[schedule]
    with _one_blas_thread():
        levels = _fitted(spec, designs)
        for length in _query_lengths():
            query = np.linspace(*DOMAIN, length)
            means = posterior_means(spec, levels, query)
            assert means.shape == (len(levels), length)
            for mean, (points, weights) in zip(means, levels):
                expected = kernel_matrix(spec, query, points) @ weights
                assert np.array_equal(mean, expected), (length, len(points))


def test_one_level_is_posterior_mean():
    spec = KERNELS["warp"]
    points = SCHEDULES["disjoint"][2]
    post = fit(spec, TrainingData(points, np.cos(points), 1e-6))
    query = np.linspace(*DOMAIN, 301)
    assert np.array_equal(
        gp.posterior_mean(post, query),
        posterior_means(spec, [(points, post.weights)], query)[0],
    )


class TestUnionColumns:
    def test_nested_levels_share_the_finest_design(self):
        designs = SCHEDULES["nested"]
        union, columns = gp._union_columns(designs)
        assert np.array_equal(union, designs[-1])
        assert columns[-1] == slice(0, 64)
        for points, cols in zip(designs[:-1], columns[:-1]):
            assert np.array_equal(union[cols], points)

    def test_disjoint_levels_are_contiguous_runs_largest_first(self):
        designs = SCHEDULES["disjoint"]
        union, columns = gp._union_columns(designs)
        assert len(union) == sum(len(d) for d in designs)
        assert columns == [slice(59, 64), slice(50, 59), slice(33, 50), slice(0, 33)]

    def test_repeated_point_gathers(self):
        coarse, fine = SCHEDULES["repeated"]
        union, columns = gp._union_columns([coarse, fine])
        assert len(union) == len(fine) - 1
        assert not isinstance(columns[1], slice)
        assert np.array_equal(union[columns[1]], fine)
        assert np.array_equal(union[columns[0]], coarse)

    def test_signed_zeros_stay_apart(self):
        union, columns = gp._union_columns([np.array([0.0, 1.0]), np.array([-0.0])])
        assert len(union) == 3 and columns == [slice(0, 2), slice(2, 3)]


def _counting(monkeypatch):
    """Count the entries of every kernel_matrix call: every cross matrix,
    and no stationary Gram matrix, which packed assembly builds from
    distances."""
    entries = []
    real = kernels.kernel_matrix

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        entries.append(out.size)
        return out

    monkeypatch.setattr(kernels, "kernel_matrix", counted)
    monkeypatch.setattr(gp, "kernel_matrix", counted)
    return entries


def _gram_entries(n):
    """Profile entries of a stationary Gram matrix on n points: packed
    assembly evaluates the profile once per entry of the lower triangle."""
    return n * (n + 1) // 2


def _counting_profile(monkeypatch):
    """Count the entries of every Matern profile evaluation, Gram and cross."""
    entries = []
    real = kernels._matern_profile

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        entries.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_matern_profile", counted)
    return entries


def _config(**overrides):
    base = dict(
        id="counted",
        domain=DOMAIN,
        truth=make_function({"kind": "sine", "freq": 2.0, "amp": 1.0}),
        kernel=MaternKernel(1.5),
        n_schedule=(4, 8, 16, 32),
        eval_mesh_size=256,
        norms=("l2", "sup"),
        rate_tail=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEntryCounts:
    def test_nested_schedule_evaluates_the_finest_cross_matrix_once(self, monkeypatch):
        config = _config()
        entries, profile = _counting(monkeypatch), _counting_profile(monkeypatch)
        run_convergence(config, seed=0)
        schedule, mesh = config.n_schedule, config.eval_mesh_size
        assert sum(entries) == mesh * max(schedule)
        assert sum(entries) < mesh * sum(schedule)
        assert sum(profile) == sum(entries) + sum(_gram_entries(n) for n in schedule)

    def test_random_designs_evaluate_every_level_once(self, monkeypatch):
        config = _config(design=DesignRule("random", seed=3))
        entries, profile = _counting(monkeypatch), _counting_profile(monkeypatch)
        run_convergence(config, seed=0)
        schedule, mesh = config.n_schedule, config.eval_mesh_size
        assert sum(entries) == mesh * sum(schedule)
        assert sum(profile) == sum(entries) + sum(_gram_entries(n) for n in schedule)


class TestLevelTiming:
    def test_records_split_the_study_time(self):
        config = _config()
        start = time.perf_counter()
        records, _ = run_convergence(config, seed=0)
        elapsed_ms = 1000.0 * (time.perf_counter() - start)
        assert all(r.wall_time_ms > 0.0 for r in records)
        assert sum(r.wall_time_ms for r in records) <= elapsed_ms

    def test_run_summary_reports_a_positive_total(self, tmp_path, capsys):
        path = tmp_path / "counted.json"
        path.write_text(json.dumps(config_to_dict(_config(eval_mesh_size=1024))))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        total = re.fullmatch(r"counted: 4 levels in (\d+) ms", line)
        assert total is not None, line
        assert int(total.group(1)) > 0
