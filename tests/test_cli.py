"""Command-line interface tests: exit codes, outputs, determinism."""

import json

import pytest

from gpconv.cli import main
from gpconv.experiments import builtin_figures, config_to_dict, reference_tdgp_config


@pytest.fixture()
def small_config_path(tmp_path):
    data = config_to_dict(builtin_figures()[1])  # the warp study
    data["id"] = "warp_small"
    data["n_schedule"] = [4, 8, 16, 32]
    data["eval_mesh_size"] = 256
    data["rate_tail"] = 3
    path = tmp_path / "warp_small.json"
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def small_dgp_config_path(tmp_path):
    config, _ = reference_tdgp_config()
    data = config_to_dict(config)
    data["id"] = "tdgp_small"
    data["n_schedule"] = [8, 16]
    data["eval_mesh_size"] = 128
    data["rate_tail"] = 2
    path = tmp_path / "tdgp_small.json"
    path.write_text(json.dumps(data))
    return path


class TestExitCodes:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_figure_id(self, tmp_path):
        assert main(["figures", "--which", "nope", "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"id": "caf\u00e9"}'.encode("latin-1"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "latin1.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "figures", "dgp"])
    def test_negative_seed(
        self, tmp_path, small_config_path, small_dgp_config_path, capsys, command
    ):
        """A negative seed exits 2 before any work, for every subcommand."""
        config = {"run": small_config_path, "dgp": small_dgp_config_path}.get(command)
        argv = [command, "--out", str(tmp_path / "out"), "--seed", "-2"]
        if config is not None:
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key(self, tmp_path, small_config_path):
        data = json.loads(small_config_path.read_text())
        data["mystery"] = True
        bad = tmp_path / "bad_key.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("domain", [0, 5, 9]),
            ("n_schedule", [2.7, 4.2]),
            ("eval_mesh_size", 4.5),
            ("rate_tail", "3"),
            ("jitter", "x"),
            ("jitter", -1.0),
            ("kernel.base.nu", "x"),
            ("kernel.base.lam", True),
            ("noise.sample_noise", "no"),
            ("design.seed", 1.5),
            ("id", 7),
            ("kernel.w.a", "x"),
            ("dgp:kernel.depth", "x"),
            ("dgp:kernel.rescale_warp", "yes"),
            ("dgp:kernel.layers.0.truncation.order", 1.5),
            ("noise.delta_sq", float("inf")),
            ("truth.freq", float("inf")),
            ("dgp:noise.exponent", float("nan")),
            ("dgp:kernel.layers.0.truncation.radius", float("nan")),
        ],
    )
    def test_malformed_config_values(
        self, tmp_path, small_config_path, small_dgp_config_path, capsys, key, value
    ):
        """Each value exits 2 with a message naming its key path.  A key
        prefixed "dgp:" is set in the hierarchy config and run by ``dgp``."""
        command, path = key.split(":") if ":" in key else ("run", key)
        source = small_dgp_config_path if command == "dgp" else small_config_path
        data = json.loads(source.read_text())
        *parents, last = path.split(".")
        target = data
        for part in parents:
            target = target[int(part) if isinstance(target, list) else part]
        target[last] = value
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps(data))
        assert main([command, "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert path in capsys.readouterr().err

    def test_kernel_parameter_out_of_range(self, tmp_path, small_config_path, capsys):
        data = json.loads(small_config_path.read_text())
        data["kernel"]["base"]["nu"] = -1
        bad = tmp_path / "bad_nu.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "nu must be positive" in capsys.readouterr().err

    def test_hierarchy_parameter_out_of_range(self, tmp_path, small_dgp_config_path, capsys):
        data = json.loads(small_dgp_config_path.read_text())
        data["kernel"]["depth"] = 0
        bad = tmp_path / "bad_depth.json"
        bad.write_text(json.dumps(data))
        assert main(["dgp", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "depth must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta", "2", "beta must lie in [0, 1]"),
            ("--iters", "0", "n_iter must be at least 1"),
            ("--burn", "-1", "n_burn must be non-negative"),
        ],
    )
    def test_chain_flags_out_of_range(
        self, tmp_path, small_dgp_config_path, capsys, flag, value, message
    ):
        argv = ["dgp", "--config", str(small_dgp_config_path), "--out", str(tmp_path)]
        assert main(argv + [flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_run_rejects_hierarchy_config(self, tmp_path, small_dgp_config_path):
        code = main(["run", "--config", str(small_dgp_config_path), "--out", str(tmp_path)])
        assert code == 2

    def test_dgp_rejects_plain_config(self, tmp_path, small_config_path):
        code = main(["dgp", "--config", str(small_config_path), "--out", str(tmp_path)])
        assert code == 2


class TestRun:
    def test_outputs_and_determinism(self, tmp_path, small_config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_config_path), "--out", str(out1), "--seed", "42"]) == 0
        assert main(["run", "--config", str(small_config_path), "--out", str(out2), "--seed", "42"]) == 0
        for name in ["warp_small.csv", "rates.csv", "warp_small_l2.svg"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rates_csv_one_row_per_norm(self, tmp_path, small_config_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config_path), "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "rates.csv").read_text().strip().splitlines()
        assert lines[0] == "config_id,norm,slope,intercept,r_squared,points_used"
        assert len(lines) == 1 + 3  # l2, h1, sup


class TestFigures:
    def test_single_figure_summary(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code = main(["figures", "--which", "fig_warp", "--out", str(out), "--seed", "42"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "fig_warp" in stdout and "3.0" in stdout
        assert (out / "fig_warp.csv").exists()
        assert (out / "fig_warp_l2.svg").exists()
        assert (out / "rates.csv").exists()


class TestDgp:
    def test_small_hierarchy_run(self, tmp_path, small_dgp_config_path):
        out = tmp_path / "dgp"
        code = main([
            "dgp", "--config", str(small_dgp_config_path), "--out", str(out),
            "--burn", "20", "--iters", "30", "--beta", "0.3", "--seed", "7",
        ])
        assert code == 0
        lines = (out / "tdgp_small.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two levels
