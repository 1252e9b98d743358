"""Experiment harness tests: configs, serialisation, runs, CSV output."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gpconv import deep, gp
from gpconv.errors import ConfigError
from gpconv.experiments import (
    FIGURE_BANDS,
    DesignRule,
    ExperimentConfig,
    McmcParams,
    NoiseModel,
    builtin_figures,
    config_from_dict,
    config_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    records_csv,
    rates_csv,
    reference_tdgp_config,
    run_convergence,
    run_dgp_convergence,
)
from gpconv.functions import make_function
from gpconv.kernels import GaussianKernel, MaternKernel


def _small_config(**overrides):
    base = dict(
        id="small",
        domain=(0.0, 5.0),
        truth=make_function({"kind": "sine", "freq": 2.0, "amp": 1.0}),
        kernel=MaternKernel(1.5),
        n_schedule=(4, 8, 16, 32),
        jitter=1e-15,
        eval_mesh_size=256,
        norms=("l2", "sup"),
        rate_tail=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            _small_config(n_schedule=(8, 8, 16))

    def test_norms_validated(self):
        with pytest.raises(ConfigError):
            _small_config(norms=("l3",))

    def test_noise_kinds(self):
        assert NoiseModel("fixed", delta_sq=1e-6).level(0.1) == 1e-6
        with pytest.raises(ConfigError):
            NoiseModel("white")
        with pytest.raises(ConfigError):
            NoiseModel("fixed", delta_sq=0.0)

    def test_schedule_noise_level(self):
        # delta_N = c h^exponent, squared into a variance
        model = NoiseModel("schedule", c_delta=1.0, exponent=1.5)
        np.testing.assert_allclose(math.sqrt(model.level(0.5)), 0.5**1.5)
        np.testing.assert_allclose(math.sqrt(model.level(0.5)), 0.353553, atol=1e-6)

    @pytest.mark.parametrize(
        "domain", [(0.0, 5.0, 9.0), (5.0,), 5.0, ("0", "5"), (False, True), (5.0, 0.0)]
    )
    def test_domain_must_be_two_numbers(self, domain):
        with pytest.raises(ConfigError, match="domain"):
            _small_config(domain=domain)

    @pytest.mark.parametrize("schedule", [(2.7, 4.2), (4.0, 8.0), (True, 8), 8])
    def test_schedule_entries_must_be_integers(self, schedule):
        with pytest.raises(ConfigError, match="integers"):
            _small_config(n_schedule=schedule)

    def test_exponent_zero_is_constant_schedule(self):
        model = NoiseModel("schedule", c_delta=0.2, exponent=0.0)
        assert model.level(0.5) == model.level(0.01) == pytest.approx(0.04)


class TestSerialisation:
    def test_builtin_configs_round_trip(self):
        for config in builtin_figures():
            data = config_to_dict(config)
            rebuilt = config_from_dict(json.loads(json.dumps(data)))
            assert config_to_dict(rebuilt) == data
            assert rebuilt.id == config.id
            assert rebuilt.kernel == config.kernel

    def test_json_bytes_stable(self):
        config = builtin_figures()[0]
        once = json.dumps(config_to_dict(config), sort_keys=True)
        twice = json.dumps(config_to_dict(config), sort_keys=True)
        assert once == twice

    def test_dgp_round_trip(self):
        config, _ = reference_tdgp_config()
        data = config_to_dict(config)
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.kernel == config.kernel

    def test_unknown_keys_rejected(self):
        data = config_to_dict(_small_config())
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_unknown_kernel_keys_rejected(self):
        data = kernel_to_dict(MaternKernel(1.5))
        data["extra"] = 2
        with pytest.raises(ConfigError):
            kernel_from_dict(data)

    def test_unknown_noise_keys_rejected(self):
        data = config_to_dict(_small_config())
        data["noise"] = {"kind": "none", "level": 3}
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_hierarchy_domain_must_be_two_numbers(self):
        config, _ = reference_tdgp_config()
        data = config_to_dict(config)
        data["kernel"]["domain"] = [0, 5, 9]
        with pytest.raises(ConfigError, match="hierarchy domain"):
            config_from_dict(data)

    def test_convolution_dim_must_be_one(self):
        conv = next(c for c in builtin_figures() if c.id == "fig_conv").kernel
        data = kernel_to_dict(conv)
        assert "dim" not in data
        assert kernel_from_dict({**data, "dim": 1}) == conv
        for dim in (2, 1.0, True):
            with pytest.raises(ConfigError, match="dim"):
                kernel_from_dict({**data, "dim": dim})

    def test_all_kernel_variants_round_trip(self):
        for config in builtin_figures():
            data = kernel_to_dict(config.kernel)
            assert kernel_from_dict(json.loads(json.dumps(data))) == config.kernel

    def test_committed_configs_parse_to_builtins(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        tdgp = config_from_dict(json.loads((configs / "tdgp_reference.json").read_text()))
        assert tdgp == reference_tdgp_config()[0]
        warp = config_from_dict(json.loads((configs / "warp_example.json").read_text()))
        fig_warp = next(c for c in builtin_figures() if c.id == "fig_warp")
        assert warp == replace(fig_warp, id="warp_example")

    def test_every_field_written_and_defaults_filled(self):
        config = _small_config(
            design=DesignRule("random", seed=4),
            noise=NoiseModel("fixed", delta_sq=1e-4, sample_noise=False),
        )
        data = config_to_dict(config)
        assert set(data) == {f.name for f in fields(ExperimentConfig)}
        assert set(data["noise"]) == {f.name for f in fields(NoiseModel)}
        assert set(data["design"]) == {f.name for f in fields(DesignRule)}
        assert config_from_dict(json.loads(json.dumps(data))) == config
        required = {key: data[key] for key in ("id", "domain", "truth", "n_schedule")}
        sparse = config_from_dict({**required, "kernel": {"variant": "matern", "nu": 1.5}})
        assert sparse == ExperimentConfig(
            id="small",
            domain=(0.0, 5.0),
            truth=config.truth,
            kernel=MaternKernel(1.5),
            n_schedule=config.n_schedule,
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda k: k["layer0"].update(extra=1), "unknown keys ['kernel.layer0.extra']"),
            (lambda k: k.update(layer0_nu=3.5), "unknown keys ['kernel.layer0_nu']"),
            (lambda k: k["layer0"].pop("nu"), "missing keys ['kernel.layer0.nu']"),
            (lambda k: k.update(layer0=[3.5]), "kernel.layer0: expected an object"),
            (lambda k: k["layers"][0].update(truncation=5), "kernel.layers.0.truncation"),
            (lambda k: k.update(variant="nope"), "kernel.variant: expected one of"),
        ],
        ids=["layer0-extra", "flat-layer0", "layer0-no-nu", "layer0-list", "truncation", "variant"],
    )
    def test_hierarchy_layout_errors_name_key_paths(self, edit, message):
        config, _ = reference_tdgp_config()
        data = config_to_dict(config)
        edit(data["kernel"])
        with pytest.raises(ConfigError) as caught:
            config_from_dict(data)
        assert message in str(caught.value)

    def test_mixture_component_layout(self):
        mixture = builtin_figures()[0].kernel
        data = kernel_to_dict(mixture)
        assert set(data["components"][0]) == {"sigma", "base"}
        del data["components"][1]["base"]
        with pytest.raises(ConfigError, match=r"kernel\.components\.1\.base"):
            kernel_from_dict(data)


class TestRunConvergence:
    def test_record_fields_and_monotone_errors(self):
        records, fits = run_convergence(_small_config(), seed=0)
        assert [r.n for r in records] == [4, 8, 16, 32]
        np.testing.assert_allclose(
            [r.fill_distance for r in records], [5 / 4, 5 / 8, 5 / 16, 5 / 32]
        )
        errs = [r.errors["l2"] for r in records]
        assert errs == sorted(errs, reverse=True)
        assert "l2" in fits and fits["l2"].points_used == 3

    def test_zero_truth_saturates_and_skips_fit(self):
        config = _small_config(truth=make_function({"kind": "constant", "value": 0.0}))
        records, fits = run_convergence(config, seed=0)
        assert all(r.errors["l2"] == 1e-16 for r in records)
        assert all("saturation" in r.flags for r in records)
        assert fits == {}

    def test_deterministic_output_bytes(self):
        config = _small_config(design=DesignRule("random", seed=4),
                               noise=NoiseModel("fixed", delta_sq=1e-4))
        a_records, a_fits = run_convergence(config, seed=42)
        b_records, b_fits = run_convergence(config, seed=42)
        assert records_csv(a_records, config.norms) == records_csv(b_records, config.norms)
        assert rates_csv({config.id: a_fits}) == rates_csv({config.id: b_fits})

    def test_seed_changes_random_design_results(self):
        config = _small_config(design=DesignRule("random", seed=4))
        a, _ = run_convergence(config, seed=1)
        b, _ = run_convergence(config, seed=2)
        assert a[0].errors["l2"] != b[0].errors["l2"]

    def test_sampled_noise_is_reproducible_and_present(self):
        config = _small_config(noise=NoiseModel("fixed", delta_sq=1e-2))
        a, _ = run_convergence(config, seed=3)
        b, _ = run_convergence(config, seed=3)
        assert a[-1].errors["l2"] == b[-1].errors["l2"]
        clean, _ = run_convergence(_small_config(), seed=3)
        assert a[-1].errors["l2"] > clean[-1].errors["l2"]

    def test_dgp_config_rejected(self):
        config, _ = reference_tdgp_config()
        with pytest.raises(ConfigError):
            run_convergence(config, seed=0)

    def test_coarse_mesh_warns(self):
        config = _small_config(n_schedule=(4, 8, 16, 128), eval_mesh_size=256)
        with pytest.warns(UserWarning, match="eval_mesh_size"):
            run_convergence(config, seed=0)

    def test_jitter_escalation_flagged_in_csv(self):
        # as in test_gp's escalation test, the dense Gaussian-kernel design at
        # N = 32 fails to factor at jitter 1e-17 and the 1000x retry succeeds
        config = _small_config(kernel=GaussianKernel(), n_schedule=(4, 32), jitter=1e-17)
        records, _ = run_convergence(config, seed=0)
        flags = [line.split(",")[-1] for line in records_csv(records, config.norms).splitlines()]
        assert flags[0] == "flags"
        assert "jitter-escalation" not in flags[1]
        assert flags[2].split(";")[-1] == "jitter-escalation"


class TestRandomDesigns:
    def test_median_slope_near_uniform_slope(self):
        """Ten random-design replicates of the warp study stay within 0.6
        of the uniform-design slope (median over seeds).

        Individual random-design slopes scatter widely (roughly 2.7 to 5
        against the fill distance of the drawn design), so the median over
        ten runs is itself a noisy statistic; the streams below are frozen.
        """
        config = next(c for c in builtin_figures() if c.id == "fig_warp")
        _, fits = run_convergence(config, seed=42)
        uniform_slope = fits["l2"].slope
        slopes = []
        for s in range(10):
            random_config = replace(
                config, id="fig_warp_rand", design=DesignRule("random", seed=s)
            )
            _, rfits = run_convergence(random_config, seed=1000 + s)
            slopes.append(rfits["l2"].slope)
        assert abs(float(np.median(slopes)) - uniform_slope) <= 0.6


class TestBuiltinFigures:
    def test_six_configs_with_bands(self):
        configs = builtin_figures()
        assert len(configs) == 6
        assert [c.id for c in configs] == list(FIGURE_BANDS)
        for config in configs:
            assert config.domain == (0.0, 5.0)
            assert config.n_schedule == tuple(2**l for l in range(1, 11))
            assert config.jitter == 1e-15
            assert config.eval_mesh_size == 4096
            assert config.recommended_mesh

    def test_expected_rates(self):
        assert FIGURE_BANDS["fig_warp"]["expected"] == 3.0
        assert FIGURE_BANDS["fig_mix3_smooth"]["expected"] == 2.0
        assert FIGURE_BANDS["fig_mix3_indicator"]["expected"] == 3.0


class TestRunDgpConvergence:
    def test_requires_schedule_noise(self):
        config, mcmc = reference_tdgp_config()
        bad = replace(config, noise=NoiseModel("none"))
        with pytest.raises(ConfigError):
            run_dgp_convergence(bad, mcmc, seed=0)

    def test_plain_config_rejected(self):
        with pytest.raises(ConfigError):
            run_dgp_convergence(_small_config(), McmcParams(), seed=0)

    def test_short_run_produces_records(self):
        config, _ = reference_tdgp_config()
        quick = replace(config, n_schedule=(8, 16), eval_mesh_size=128, rate_tail=2)
        records, fits = run_dgp_convergence(quick, McmcParams(20, 30, 0.3), seed=1)
        assert len(records) == 2
        assert all(np.isfinite(r.errors["l2"]) for r in records)

    def test_coarse_mesh_warns(self):
        config, _ = reference_tdgp_config()
        quick = replace(config, n_schedule=(8, 16), eval_mesh_size=32, rate_tail=2)
        with pytest.warns(UserWarning, match="eval_mesh_size") as caught:
            run_dgp_convergence(quick, McmcParams(2, 3, 0.3), seed=1)
        # the warning points at the runner's caller
        assert caught[0].filename == __file__

    def test_assembly_failures_flagged(self, monkeypatch):
        """Every proposal fails to factor once a chain holds its start state,
        and each level's record says so."""
        config, _ = reference_tdgp_config()
        quick = replace(config, n_schedule=(8, 16), eval_mesh_size=128, rate_tail=2)
        real_cholesky = gp.linalg.cholesky
        real_init = deep.DgpChain.__init__

        def failing_cholesky(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        def init_then_fail(self, *args, **kwargs):
            monkeypatch.setattr(gp.linalg, "cholesky", real_cholesky)
            real_init(self, *args, **kwargs)
            monkeypatch.setattr(gp.linalg, "cholesky", failing_cholesky)

        monkeypatch.setattr(deep.DgpChain, "__init__", init_then_fail)
        records, _ = run_dgp_convergence(quick, McmcParams(5, 10, 0.3), seed=1)
        assert len(records) == 2
        assert all("assembly-failures" in r.flags for r in records)
        assert all(np.isfinite(r.errors["l2"]) for r in records)


class TestCsv:
    def test_records_csv_header(self):
        records, _ = run_convergence(_small_config(norms=("l2", "h1", "sup")), seed=0)
        text = records_csv(records, ("l2", "h1", "sup"))
        lines = text.strip().splitlines()
        assert lines[0] == "n,fill_distance,error_l2,error_h1,error_sup,wall_time_ms,flags"
        assert len(lines) == 5
        # timing column written deterministically
        assert all(line.split(",")[5] == "0.0" for line in lines[1:])

    def test_rates_csv_rows(self):
        records, fits = run_convergence(_small_config(), seed=0)
        text = rates_csv({"small": fits})
        lines = text.strip().splitlines()
        assert lines[0] == "config_id,norm,slope,intercept,r_squared,points_used"
        assert len(lines) == 1 + len(fits)
