"""Metric names and the per-layer metrics derived from a traced child."""

import json
import re
from pathlib import Path

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fake_traced_child(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "x.csv").write_text("12345")
    return {
        "wall_s": 2.0,
        "out": out,
        "result": {
            "trace": {
                "calls": {"deep.step": 4, "deep.conditional_mean": 4, "linalg.cholesky": 2},
                "self_s": {"deep.step": 0.5, "linalg.cholesky": 0.25},
                "counters": {"linalg.cholesky.flop": 1e9, "deep.conditional_mean.computed": 1},
                "durations": {"deep.step": [0.001, 0.002, 0.003, 0.004]},
                "thread_self_s": [1.0],
            },
            "studies": [
                {"id": "s1", "thread": 1, "level_s": [0.25, 0.5]},
                {"id": "s2", "thread": 2, "level_s": [0.25]},
            ],
            "chains": [
                {"iterations": 10, "accepted": 3, "trunc_rejections": 1, "assembly_failures": 0, "final_beta": 0.5},
                {"iterations": 10, "accepted": 1, "trunc_rejections": 2, "assembly_failures": 1, "final_beta": 0.125},
            ],
        },
    }


def test_metric_names_follow_the_grammar():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]


def test_every_listed_per_layer_metric_is_produced(tmp_path):
    traced = fake_traced_child(tmp_path)
    prefix = "experiments.study_s."
    listed = [m["name"][len(prefix):] for m in SPEC["per_layer"] if m["name"].startswith(prefix)]
    metrics = run.layer_metrics(traced, listed + ["s1", "s2"], 1.6, 1e-4)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert all(NAME.fullmatch(name) for name in metrics)
    assert metrics["linalg.cholesky.gflop"] == 1.0
    assert metrics["linalg.cholesky.gflop_per_s"] == 4.0
    assert metrics["deep.step.p50_ms"] == 2.0
    assert metrics["deep.step.p99_ms"] == 4.0
    assert metrics["deep.conditional_mean.hit_ratio"] == 0.75
    assert metrics["deep.accept_ratio"] == 0.2
    assert metrics["deep.trunc_rejections"] == 3
    assert metrics["deep.final_beta"] == 0.125
    assert metrics["experiments.study_s.s1"] == 0.75
    assert metrics["experiments.level_s.max"] == 0.5
    assert metrics["cli.figures.parallel_efficiency"] == 1.0 / (2.0 * 2)
    assert metrics["cli.output_bytes"] == 5
    assert abs(metrics["trace.overhead_frac"] - 0.25) < 1e-12


def test_trace_problems_checks_exact_counts_and_self_time():
    traced = {"wall_s": 1.0, "result": {"trace": {"calls": {"deep.step": 7500}, "thread_self_s": [0.5, 0.9]}}}
    assert run.trace_problems(traced, {"deep.step": 7500, "gp.fit": 0}) == []
    assert len(run.trace_problems(traced, {"deep.step": 7499})) == 1
    traced["result"]["trace"]["thread_self_s"].append(1.5)
    assert len(run.trace_problems(traced, {})) == 1
