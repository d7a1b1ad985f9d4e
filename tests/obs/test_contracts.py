"""Every artifact contract, and every committed artifact, in one suite.

Each machine-readable document kind is one
:class:`~repro.obs.schema.Contract` constant.  The I/O behaviour they
share -- a write/load round trip, refusing to write an invalid document,
rejecting malformed JSON -- is checked once per contract here; each
schema's own negative cases stay next to the module that owns it.

The committed-artifact test is what keeps the contracts honest: every
committed ``BENCH_*.json`` and contract-backed golden loads through its
contract, and writing it back reproduces the file byte for byte, so no
committed artifact needs an upgrade path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cascade import CASCADE_REPORT
from repro.detectors.report import DETECTORS_REPORT
from repro.errors import ReportError
from repro.obs import TELEMETRY_SUMMARY
from repro.parallel import BENCH_REPORT
from repro.scenarios import SCENARIO_DOCUMENT, get_script, script_document
from repro.serve import SERVE_REPORT

ROOT = Path(__file__).resolve().parents[2]

#: every committed contract-backed file, with the contract it obeys
COMMITTED = (
    ("BENCH_pipeline.json", BENCH_REPORT),
    ("BENCH_serve.json", SERVE_REPORT),
    ("BENCH_detectors.json", DETECTORS_REPORT),
    ("BENCH_cascade.json", CASCADE_REPORT),
    ("tests/golden/pipeline_telemetry.json", TELEMETRY_SUMMARY),
    ("tests/golden/serve_slo.json", SERVE_REPORT),
    ("tests/golden/detectors_bench.json", DETECTORS_REPORT),
)


def _committed(path):
    return lambda: json.loads((ROOT / path).read_text(encoding="utf-8"))


#: one valid example document per contract
EXAMPLES = (
    (TELEMETRY_SUMMARY, _committed("tests/golden/pipeline_telemetry.json")),
    (BENCH_REPORT, _committed("BENCH_pipeline.json")),
    (SERVE_REPORT, _committed("tests/golden/serve_slo.json")),
    (DETECTORS_REPORT, _committed("tests/golden/detectors_bench.json")),
    (CASCADE_REPORT, _committed("BENCH_cascade.json")),
    (SCENARIO_DOCUMENT,
     lambda: script_document(get_script("camera_displacement"))),
)

LABELS = [contract.label for contract, _ in EXAMPLES]
by_contract = pytest.mark.parametrize("contract,example", EXAMPLES,
                                      ids=LABELS)


@pytest.mark.parametrize("path,contract", COMMITTED,
                         ids=[path for path, _ in COMMITTED])
def test_committed_artifact_is_current(path, contract, tmp_path):
    document = contract.load(str(ROOT / path))
    rewritten = tmp_path / "rewritten.json"
    contract.write(str(rewritten), document)
    assert rewritten.read_bytes() == (ROOT / path).read_bytes()


def _v1_bench(report: dict) -> None:
    report["schema_version"] = 1
    del report["scaling"]


def _v1_serve(report: dict) -> None:
    report["schema_version"] = 1
    for entry in report["sweep"]:
        for key in ("rejected_infeasible", "overload_transitions",
                    "goodput_fps"):
            del entry["totals"][key]
        for stream in entry["streams"].values():
            del stream["rejected_infeasible"], stream["goodput_fps"]


@pytest.mark.parametrize("path,contract,downgrade", [
    ("BENCH_pipeline.json", BENCH_REPORT, _v1_bench),
    ("BENCH_serve.json", SERVE_REPORT, _v1_serve),
], ids=["bench report", "serve report"])
def test_v1_document_is_rejected(path, contract, downgrade, tmp_path):
    """Version 1 documents have no upgrade path: they fail to load."""
    document = _committed(path)()
    downgrade(document)
    legacy = tmp_path / "v1.json"
    legacy.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ReportError, match=f"{contract.label} violates schema"):
        contract.load(str(legacy))


@by_contract
def test_write_then_load_round_trips(contract, example, tmp_path):
    document = example()
    path = str(tmp_path / "document.json")
    contract.write(path, document)
    assert contract.load(path) == document


@by_contract
def test_write_refuses_invalid_document(contract, example, tmp_path):
    document = example()
    del document["schema_version"]
    path = tmp_path / "document.json"
    with pytest.raises(contract.error,
                       match=f"{contract.label} violates schema"):
        contract.write(str(path), document)
    assert not path.exists()


@pytest.mark.parametrize("contract", [c for c, _ in EXAMPLES], ids=LABELS)
def test_load_rejects_malformed_json(contract, tmp_path):
    path = tmp_path / "document.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(contract.error,
                       match=f"{contract.label} .* is not valid JSON"):
        contract.load(str(path))
