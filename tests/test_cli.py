"""Command-line interface tests: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gpconv import cli
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

    @pytest.mark.parametrize("config_id", ["../escaped", "a,b", "sub/dir", ".hidden", "", "a b"])
    def test_id_must_be_file_name_stem(self, tmp_path, small_config_path, capsys, config_id):
        """The id names the output files: one that would leave --out, break
        the CSV or name a subdirectory exits 2 before any file is written."""
        data = json.loads(small_config_path.read_text())
        data["id"] = config_id
        bad = tmp_path / "bad_id.json"
        bad.write_text(json.dumps(data))
        small_config_path.unlink()
        argv = ["run", "--config", str(bad), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "id must be letters, digits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    def test_numerical_failure_exits_3(self, tmp_path, small_config_path, capsys):
        """A Gaussian-kernel Gram matrix on 64 points with no jitter does not
        factor: the run stops with exit code 3."""
        data = json.loads(small_config_path.read_text())
        data.update(
            kernel={"variant": "gaussian", "lam": 1.0},
            n_schedule=[8, 64],
            jitter=0.0,
            eval_mesh_size=256,
        )
        bad = tmp_path / "singular.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Gram matrix is numerically singular")

    def test_negative_design_seed(self, tmp_path, small_config_path, capsys):
        data = json.loads(small_config_path.read_text())
        data["design"] = {"kind": "random", "seed": -2}
        bad = tmp_path / "bad_design_seed.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "design: seed must be non-negative, got -2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            "--burn", "20", "--iters", "30", "--seed", "7",
        ])
        assert code == 0
        lines = (out / "tdgp_small.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two levels


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a real file, which the report may redirect."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


class TestClosedStdout:
    """A closed stdout ends only the console report: every file is still
    written, the exit code is kept and nothing is raised or printed."""

    @pytest.mark.parametrize("command", ["run", "figures", "dgp"])
    def test_files_written_and_exit_kept(
        self, tmp_path, small_config_path, small_dgp_config_path, monkeypatch, capsys, command
    ):
        args = {
            "run": ["--config", str(small_config_path)],
            "figures": ["--which", "fig_warp"],
            "dgp": ["--config", str(small_dgp_config_path), "--burn", "5", "--iters", "5"],
        }[command]
        stem = {"run": "warp_small", "figures": "fig_warp", "dgp": "tdgp_small"}[command]
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        try:
            code = main([command, *args, "--out", str(tmp_path / "out")])
        finally:
            monkeypatch.undo()
            os.close(fd)
        assert code == 0
        assert capsys.readouterr().err == ""
        for name in [f"{stem}.csv", f"{stem}_l2.svg", "rates.csv"]:
            assert (tmp_path / "out" / name).exists()

    def test_reader_leaving_a_pipe(self, tmp_path):
        """``figures | head -1``: the command outlives its reader."""
        out = tmp_path / "out"
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        child = subprocess.Popen(
            [sys.executable, "-m", "gpconv.cli", "figures", "--which", "fig_warp", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline().startswith(b"config")
        child.stdout.close()
        assert child.wait(timeout=120) == 0
        assert child.stderr.read() == b""
        child.stderr.close()
        assert (out / "fig_warp.csv").exists() and (out / "rates.csv").exists()


@pytest.fixture()
def blas_pools():
    """(getter, setter) of numpy's and scipy's bundled OpenBLAS; their
    thread counts are restored after the test."""
    pools = [cli._blas_pool(package, *names) for package, *names in cli.OPENBLAS_POOLS]
    if None in pools:
        pytest.skip("no bundled OpenBLAS thread control in this installation")
    before = [get() for get, _ in pools]
    yield pools
    for (_, set_threads), count in zip(pools, before):
        set_threads(count)


def _set_threads(pools, count):
    for _, set_threads in pools:
        set_threads(count)


def _threads(pools):
    return [get() for get, _ in pools]


class TestBlasThreads:
    """``figures`` and ``dgp`` run on one BLAS thread; ``run`` does not."""

    def test_figure_outputs_do_not_depend_on_thread_default(self, tmp_path, blas_pools):
        outputs = []
        for count in (2, 1):
            _set_threads(blas_pools, count)
            out = tmp_path / f"threads{count}"
            assert main(["figures", "--which", "fig_warp", "--out", str(out), "--seed", "42"]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command, pinned", [("figures", True), ("dgp", True), ("run", False)]
    )
    def test_threads_during_command(self, tmp_path, blas_pools, monkeypatch, command, pinned):
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(_threads(blas_pools)) or 0)
        _set_threads(blas_pools, 2)
        before = _threads(blas_pools)
        argv = [command, "--out", str(tmp_path)]
        if command != "figures":
            argv += ["--config", str(tmp_path / "unread.json")]
        assert main(argv) == 0
        assert seen == [[1, 1] if pinned else before]
        assert _threads(blas_pools) == before

    def test_counts_restored_after_config_error(self, tmp_path, blas_pools):
        _set_threads(blas_pools, 2)
        before = _threads(blas_pools)
        assert main(["figures", "--which", "nope", "--out", str(tmp_path)]) == 2
        assert _threads(blas_pools) == before

    def test_missing_library_runs_unpinned(
        self, tmp_path, small_dgp_config_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            cli,
            "OPENBLAS_POOLS",
            tuple((package, "no-such-library-*.so", get, set_) for package, _, get, set_
                  in cli.OPENBLAS_POOLS),
        )
        out = tmp_path / "dgp"
        code = main([
            "dgp", "--config", str(small_dgp_config_path), "--out", str(out),
            "--burn", "20", "--iters", "30", "--seed", "7",
        ])
        assert code == 0
        assert (out / "tdgp_small.csv").exists() and (out / "rates.csv").exists()
        assert "BLAS threads unpinned for numpy, scipy" in capsys.readouterr().err
