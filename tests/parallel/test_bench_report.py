"""The BENCH_pipeline.json contract: schema and the committed report
(the I/O every contract shares is in ``tests/obs/test_contracts.py``)."""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.errors import ReportError
from repro.parallel import BENCH_REPORT, BENCH_SCHEMA, BENCH_SCHEMA_VERSION

_REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def minimal_report() -> dict:
    mode = {"frames": 100, "elapsed_s": 0.5, "fps": 200.0}
    stage = {"sequential_us_per_frame": 10.0, "batched_us_per_frame": 2.0,
             "speedup": 5.0}
    return {
        "schema_version": 2,
        "benchmark": "unit-test",
        "quick": True,
        "config": {"streams": 1, "frames_per_stream": 100,
                   "frame_shape": [8], "batch_size": 64, "workers": 0,
                   "reference_size": 50, "latent_dim": 8,
                   "transport": "shm", "host_cores": 1},
        "modes": {"sequential": dict(mode),
                  "batched": {**mode, "speedup_vs_sequential": 5.0,
                              "batch_size": 64},
                  "fleet": {**mode, "workers": 2, "batch_size": 64,
                            "transport": "shm"}},
        "stages": {"encode": dict(stage), "pvalue": dict(stage),
                   "martingale": dict(stage), "selection": dict(stage)},
        "scaling": [{"workers": 4, "streams": 100, "frames": 10000,
                     "speedup_vs_sequential": 18.5,
                     "critical_path_frames": 2700, "balance": 0.97,
                     "steals": 4},
                    {"workers": 1, "streams": 100, "frames": 10000,
                     "speedup_vs_sequential": 5.0}],
    }


def test_minimal_report_validates():
    BENCH_REPORT.validate(minimal_report())


@pytest.mark.parametrize("mutate,match", [
    (lambda r: r.pop("modes"), "missing required key"),
    (lambda r: r.pop("scaling"), "missing required key"),
    (lambda r: r.update(schema_version=3), "not in"),
    (lambda r: r.update(extra="x"), "unexpected key"),
    (lambda r: r["modes"]["batched"].update(fps="fast"), "expected number"),
    (lambda r: r["config"].update(streams=0), "minimum"),
    (lambda r: r["modes"]["sequential"].update(elapsed_s=0.0),
     "exclusiveMinimum"),
    (lambda r: r["config"].update(streams=True), "expected integer"),
    (lambda r: r["config"].update(frame_shape=[8, "x"]), "expected integer"),
    (lambda r: r["config"].update(transport="carrier-pigeon"), "not in"),
    (lambda r: r["stages"]["encode"].pop("speedup"), "missing required key"),
    (lambda r: r["scaling"][0].pop("workers"), "missing required key"),
    (lambda r: r["scaling"][0].update(steals=-1), "minimum"),
    (lambda r: r["scaling"][0].update(surprise=1), "unexpected key"),
    (lambda r: r["scaling"][1].update(speedup_vs_sequential=0.0),
     "exclusiveMinimum"),
])
def test_schema_violations_are_rejected(mutate, match):
    report = copy.deepcopy(minimal_report())
    mutate(report)
    with pytest.raises(ReportError, match=match):
        BENCH_REPORT.validate(report)


def test_schema_is_itself_json_serializable():
    json.dumps(BENCH_SCHEMA)


def test_committed_report_is_valid():
    """The report at the repo root must always satisfy the schema and
    carry the fleet scaling sweep."""
    path = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")
    assert os.path.exists(path), "BENCH_pipeline.json must be committed"
    report = BENCH_REPORT.load(path)
    assert report["schema_version"] == BENCH_SCHEMA_VERSION
    assert report["modes"]["batched"]["fps"] > 0
    workers = {entry["workers"] for entry in report["scaling"]}
    assert {1, 2, 4, 8} <= workers, (
        "committed sweep must cover 1/2/4/8 workers")
