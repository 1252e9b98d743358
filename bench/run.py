"""Benchmark for gpconv: three workloads through the public CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI run is a fresh child process (``bench/child.py``), launched one
at a time with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and GPCONV_THREADS
removed from its environment, so the program's own thread defaults are
what gets measured.  With ``--trace 0`` the run measures set-up probes
and as many untraced CLI runs as fit in S seconds (at least one) and
reports the end-to-end metrics as medians.  With ``--trace 1`` it makes
one traced CLI run, which wraps the gpconv layers in spans, plus untraced
runs for the tracing overhead, and reports the per-layer metrics.  Every run's output
files are checked against the gates in ``gates.py``.  The last line of
standard output is one JSON object; earlier lines describe each child and
the environment.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gates

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GPCONV_THREADS")
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
TDGP_BURN, TDGP_ITERS = 500, 2000
DENSE_SCHEDULE = (512, 1024, 2048, 4096)


@dataclass
class Workload:
    """CLI arguments (``{out}`` marks the output directory), the studies
    the run must write, and the exact call counts per traced span that
    prove every call was reached."""

    args: list[str]
    studies: list[gates.Study]
    expected_counts: dict[str, int]
    config_sha256: str | None = None


def _always(l2, rates) -> bool:
    return True


def build_workload(name: str, seed: int, tmp: Path) -> Workload:
    from gpconv.experiments import FIGURE_BANDS, builtin_figures

    if name == "figures_all":
        # Kernel evaluation: the 4096 x N cross matrices, Bessel K_3 in
        # fig_mix3_indicator; Cholesky is about 1% and no chain runs.
        studies = [
            gates.Study(c.id, c.n_schedule, gates.band_gate(c.id, FIGURE_BANDS[c.id]["band"]))
            for c in builtin_figures()
        ]
        args = ["figures", "--which", "all"]
        counts = {"gp.fit": sum(len(s.n_schedule) for s in studies), "deep.step": 0}
        return Workload(args + ["--out", "{out}", "--seed", str(seed)], studies, counts)

    if name == "tdgp_reference":
        # Many small Gram factorisations inside the pCN chain.  Criterion 12
        # is reported per run but is not a gate: it holds for some chain
        # seeds and not for others (see README.md).
        config = json.loads((ROOT / "configs" / "tdgp_reference.json").read_text())
        studies = [gates.Study(config["id"], tuple(config["n_schedule"]), _always)]
        args = ["dgp", "--config", str(ROOT / "configs" / "tdgp_reference.json")]
        args += ["--burn", str(TDGP_BURN), "--iters", str(TDGP_ITERS)]
        steps = len(config["n_schedule"]) * (TDGP_BURN + TDGP_ITERS)
        counts = {"deep.step": steps, "gp.fit": 0}
        return Workload(args + ["--out", "{out}", "--seed", str(seed)], studies, counts)

    if name == "dense_noisy_large_n":
        # One large factorisation per level, random design, sampled noise.
        config = json.loads((ROOT / "configs" / "warp_example.json").read_text())
        config.update(
            id=name,
            design={"kind": "random", "seed": seed},
            noise={"kind": "fixed", "delta_sq": 1e-6, "sample_noise": True},
            n_schedule=list(DENSE_SCHEDULE),
            eval_mesh_size=4096,
        )
        text = json.dumps(config, indent=2, sort_keys=True)
        path = tmp / f"{name}.json"
        path.write_text(text)
        studies = [gates.Study(name, DENSE_SCHEDULE, gates.non_increasing)]
        counts = {"gp.fit": len(DENSE_SCHEDULE), "deep.step": 0}
        args = ["run", "--config", str(path), "--out", "{out}", "--seed", str(seed)]
        return Workload(args, studies, counts, hashlib.sha256(text.encode()).hexdigest())

    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("figures_all", "tdgp_reference", "dense_noisy_large_n")


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)
    return env


def spawn(work_dir: Path, cli_args: list[str], trace: bool, deadline: float) -> dict:
    """Run one child to completion and return its timings and result."""
    work_dir.mkdir(parents=True)
    result_path = work_dir / "child.json"
    command = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0"]
    if cli_args:
        out = str(work_dir / "out")
        command += ["--"] + [a.replace("{out}", out) for a in cli_args]
    with open(work_dir / "output.txt", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT
        )
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    return {
        "exit_code": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": result["t_main"] - start if "t_main" in result else math.nan,
        "result": result,
        "out": work_dir / "out",
    }


# ---------------------------------------------------------------------------
# metrics


def geometric_mean(values) -> float:
    values = list(values)
    if not values or any(not v > 0 for v in values):
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end_metrics(children: list[dict], probes: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "cpu_s": statistics.median(c["cpu_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in probes + children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


TRACED_SPANS = (
    "kernels.kernel_matrix",
    "kernels.matern_profile",
    "kernels.bessel_profile",
    "bessel.log_bessel_k",
    "functions.eval",
    "gp.fit",
    "gp.posterior_mean",
    "linalg.cholesky",
    "deep.step",
    "deep.assemble",
    "deep.layer_kernel",
    "deep.path_cholesky",
    "deep.conditional_mean",
    "analysis.discrete_norm",
    "analysis.error_norm",
    "analysis.fit_rate",
    "plotting.render_loglog_svg",
)
COUNTERS = (
    "kernels.kernel_matrix.entries",
    "kernels.matern_profile.entries",
    "kernels.bessel_profile.entries",
    "bessel.log_bessel_k.entries",
    "gp.fit.escalations",
    "linalg.cholesky.failures",
    "deep.conditional_mean.computed",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(traced: dict, study_ids, untraced_wall_s: float, l2_finest: float) -> dict:
    """Per-layer metrics from one traced child."""
    summary = traced["result"]["trace"]
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    metrics = {}
    for span in TRACED_SPANS:
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
    for key in COUNTERS:
        metrics[key] = counters.get(key, 0)

    gflop = counters.get("linalg.cholesky.flop", 0.0) / 1e9
    metrics["linalg.cholesky.gflop"] = gflop
    chol_s = self_s.get("linalg.cholesky", 0.0)
    metrics["linalg.cholesky.gflop_per_s"] = gflop / chol_s if chol_s > 0 else 0.0

    steps_ms = [1000.0 * d for d in summary["durations"].get("deep.step", [])]
    metrics["deep.step.p50_ms"] = percentile(steps_ms, 50)
    metrics["deep.step.p99_ms"] = percentile(steps_ms, 99)
    cm_calls = calls.get("deep.conditional_mean", 0)
    cm_computed = counters.get("deep.conditional_mean.computed", 0)
    metrics["deep.conditional_mean.hit_ratio"] = (
        (cm_calls - cm_computed) / cm_calls if cm_calls else 0.0
    )

    chains = traced["result"]["chains"]
    iterations = sum(c["iterations"] for c in chains)
    metrics["deep.accept_ratio"] = (
        sum(c["accepted"] for c in chains) / iterations if iterations else 0.0
    )
    metrics["deep.trunc_rejections"] = sum(c["trunc_rejections"] for c in chains)
    metrics["deep.assembly_failures"] = sum(c["assembly_failures"] for c in chains)
    metrics["deep.final_beta"] = chains[-1]["final_beta"] if chains else 0.0

    studies = traced["result"]["studies"]
    study_s = {s["id"]: sum(s["level_s"]) for s in studies}
    for study_id in study_ids:
        metrics[f"experiments.study_s.{study_id}"] = study_s.get(study_id, 0.0)
    metrics["experiments.level_s.max"] = max(
        (t for s in studies for t in s["level_s"]), default=0.0
    )
    workers = len({s["thread"] for s in studies}) or 1
    metrics["cli.figures.parallel_efficiency"] = sum(study_s.values()) / (
        traced["wall_s"] * workers
    )
    metrics["cli.output_bytes"] = sum(
        p.stat().st_size for p in traced["out"].rglob("*") if p.is_file()
    )
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced_wall_s - 1.0
    metrics["experiments.l2_err_finest"] = l2_finest
    return metrics


def trace_problems(traced: dict, expected_counts: dict) -> list[str]:
    """Exact counts that prove every traced call was reached, and the
    bound that self time summed over one thread stays inside the wall."""
    summary = traced["result"].get("trace")
    if summary is None:
        return ["traced child wrote no trace"]
    calls = summary["calls"]
    problems = [
        f"{span}.calls = {calls.get(span, 0)}, expected {want}"
        for span, want in expected_counts.items()
        if calls.get(span, 0) != want
    ]
    for thread_s in summary["thread_self_s"]:
        if thread_s > traced["wall_s"]:
            problems.append(f"self time {thread_s:.3f} s exceeds wall {traced['wall_s']:.3f} s")
    return problems


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gpconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(blas_threads: dict, config_sha256: str | None) -> dict:
    import gpconv
    import numpy
    import scipy

    return {
        "blas_threads": blas_threads,
        "thread_env_of_benchmark": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_of_children": {v: None for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gpconv": gpconv.__version__,
        "git_commit": _git_commit(),
        "gpconv_src_sha256": _source_sha256(),
        "config_sha256": config_sha256,
    }


# ---------------------------------------------------------------------------
# one benchmark run


def load_metric_specs(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    units = load_metric_specs(trace)
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=scratch_root))
    try:
        workload = build_workload(workload_name, seed, tmp)
        counter = itertools.count()

        def child(cli_args, traced=False):
            return spawn(tmp / f"child{next(counter)}", cli_args, traced, deadline)

        warm = child([])  # compiles bytecode and warms the file cache; not timed
        probes = [child([]) for _ in range(0 if trace else SETUP_PROBES)]
        traced = child(workload.args, traced=True) if trace else None
        # Start another run only while it is expected to end within
        # `seconds`, so a run never measures much longer than asked.
        children = []
        start = time.monotonic()
        while not children or time.monotonic() - start + children[-1]["wall_s"] <= seconds:
            children.append(child(workload.args))

        attempted = failed = 0
        problems = [f"set-up probe exited {p['exit_code']}" for p in [warm] + probes if p["exit_code"]]
        l2_finest = []
        for index, c in enumerate(([traced] if traced else []) + children):
            outcome = gates.check(c["out"], c["exit_code"], workload.studies)
            attempted += outcome.attempted
            failed += outcome.failed
            finest = geometric_mean(l2[-1] for l2 in outcome.l2.values())
            l2_finest.append(finest)
            detail = {
                "child": index,
                "traced": c is traced,
                "exit_code": c["exit_code"],
                **{k: c[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")},
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "l2_err_finest": finest,
            }
            if workload_name == "tdgp_reference" and outcome.l2:
                detail["criterion_12"] = gates.criterion_12(outcome.l2["tdgp_reference"], {})
            print(json.dumps(detail))
            if c["exit_code"]:
                tail = (c["out"].parent / "output.txt").read_text(errors="replace")[-2000:]
                problems.append(f"child {index} exited {c['exit_code']}: {tail}")

        if trace:
            from gpconv.experiments import builtin_figures

            problems += trace_problems(traced, workload.expected_counts)
            available = {}
            if "trace" in traced["result"]:
                untraced = statistics.median(c["wall_s"] for c in children)
                study_ids = [c.id for c in builtin_figures()] + ["tdgp_reference", "dense_noisy_large_n"]
                available = layer_metrics(traced, study_ids, untraced, l2_finest[0])
        else:
            available = end_to_end_metrics(children, probes)

        print(json.dumps({"environment": environment(
            (children[-1]["result"] or {}).get("blas_threads"), workload.config_sha256
        )}))
        missing = sorted(set(units) - set(available))
        if missing:
            problems.append(f"metrics not produced: {missing}")
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        correct = failed == 0 and not problems
        metrics = {
            name: {"value": available[name], "unit": unit}
            for name, unit in units.items()
            if name in available
        }
        print(json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
        print(f"elapsed {time.monotonic() - begin:.1f} s", file=sys.stderr)
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gpconv" / "__init__.py").is_file():
        print(f"no gpconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
