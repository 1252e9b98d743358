"""Gate parsing on small CSV fixtures written by the program's own writers."""

import math

from gpconv.analysis import RateFit
from gpconv.experiments import ConvergenceRecord, rates_csv, records_csv

import gates

NORMS = ("l2", "h1", "sup")


def write_study(out, study_id, l2_errors, slope):
    records = [
        ConvergenceRecord(n=2**k, fill_distance=2.0**-k, errors=dict.fromkeys(NORMS, e), wall_time_ms=1.0)
        for k, e in enumerate(l2_errors, start=1)
    ]
    out.mkdir(exist_ok=True)
    (out / f"{study_id}.csv").write_text(records_csv(records, NORMS))
    fit = RateFit(slope=slope, intercept=0.0, r_squared=1.0, points_used=len(records))
    return {norm: fit for norm in NORMS}


def study(study_id, gate, levels=3):
    return gates.Study(study_id, tuple(2**k for k in range(1, levels + 1)), gate)


def test_read_levels_and_rates(tmp_path):
    fits = {"a": write_study(tmp_path, "a", [1e-1, 1e-2, 1e-3], 2.5)}
    (tmp_path / "rates.csv").write_text(rates_csv(fits))
    levels = gates.read_levels(tmp_path / "a.csv")
    assert [row["n"] for row in levels] == [2, 4, 8]
    assert levels[-1]["error_l2"] == 1e-3
    assert gates.read_rates(tmp_path / "rates.csv")[("a", "l2")] == 2.5


def test_band_gate_passes_and_fails_whole_study(tmp_path):
    fits = {
        "in_band": write_study(tmp_path, "in_band", [1e-1, 1e-2, 1e-3], 2.5),
        "out_band": write_study(tmp_path, "out_band", [1e-1, 1e-2, 1e-3], 4.0),
    }
    (tmp_path / "rates.csv").write_text(rates_csv(fits))
    studies = [
        study("in_band", gates.band_gate("in_band", (2.0, 3.0))),
        study("out_band", gates.band_gate("out_band", (2.0, 3.0))),
    ]
    outcome = gates.check(tmp_path, 0, studies)
    assert (outcome.attempted, outcome.failed) == (6, 3)
    assert outcome.l2["in_band"] == [1e-1, 1e-2, 1e-3]


def test_non_finite_level_and_missing_rows_fail(tmp_path):
    write_study(tmp_path, "nan_level", [1e-1, math.nan, 1e-3], 2.0)
    write_study(tmp_path, "short", [1e-1, 1e-2], 2.0)
    studies = [study("nan_level", lambda l2, rates: True), study("short", lambda l2, rates: True)]
    outcome = gates.check(tmp_path, 0, studies)
    assert (outcome.attempted, outcome.failed) == (6, 2)


def test_non_increasing_gate(tmp_path):
    write_study(tmp_path, "up", [1e-2, 1e-3, 2e-3], 1.0)
    write_study(tmp_path, "flat", [1e-2, 1e-3, 1e-3], 1.0)
    studies = [study("up", gates.non_increasing), study("flat", gates.non_increasing)]
    assert gates.check(tmp_path, 0, studies).failed == 3


def test_failed_command_or_missing_file_fails_every_level(tmp_path):
    write_study(tmp_path, "a", [1e-1, 1e-2, 1e-3], 2.0)
    studies = [study("a", lambda l2, rates: True), study("missing", lambda l2, rates: True)]
    assert gates.check(tmp_path, 0, studies).failed == 3
    assert gates.check(tmp_path, 3, studies).failed == 6


def test_criterion_12():
    assert gates.criterion_12([8e-2, 2e-3, 5e-5], {})
    assert not gates.criterion_12([1.7e-2, 1.9e-2, 5e-5], {})  # not decreasing
    assert not gates.criterion_12([1e-2, 8e-3, 5e-3], {})  # contraction under 4
