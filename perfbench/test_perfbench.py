"""Self-test of the benchmark: a tiny pass of every workload, the metric
names and units against BENCHMARK.json, and the failure classes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DIAGNOSTIC, SELFMAP_COUNTS, WORKLOADS  # noqa: E402

tm = run.load_trimat()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool = False, max_ops: int = 2) -> dict:
    return run.run(workload, seed=1, seconds=0, trace=trace, max_ops=max_ops)


def printed(out: dict, trace: bool) -> dict:
    return json.loads(json.dumps(run.with_units(out["result"], trace)))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_metrics_reported():
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == tracing.metric_units()
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - DIAGNOSTIC


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_reports_every_metric(workload):
    out = printed(tiny(workload), trace=False)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    for name in ("setup_s", "wall_s", "p50_ms", "tail_ms", "peak_rss_mb", "ops_per_s"):
        assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_pass_reports_every_layer(workload):
    raw = tiny(workload, trace=True)
    out = printed(raw, trace=True)
    assert raw["trace_failures_match"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
    values = {k: v["value"] for k, v in out["metrics"].items()}
    if workload in ("reindexed", "subdivided"):
        # Calls made inside reconstruct resolve through its own module.
        assert values["reconstruct.reconstruct.calls"] == 2
        assert values["reconstruct.detect_exceptional.calls"] == 2
        assert values["intersection.intersection_matrix.calls"] > 0
        assert values["complexes.validate_closed_surface.calls"] > 0
        assert values["cli.main.calls"] == 2
    if workload == "selfmaps":
        maps = sum(SELFMAP_COUNTS[name][0] for name in ("tetrahedron", "octahedron"))
        assert values["intersection.find.maps_returned"] == maps
        assert values["intersection.extend_to_simplicial.calls"] == maps
        assert values["complexes.validate_per_extend"] == 2
        assert values["intersection.maps_examined_frac"] == 1
    if workload == "corpus":
        for k in range(1, 8):
            assert values[f"verification.run_check.c{k}.calls"] == 1
        assert values["cycles.enumerate_realizations.calls"] > 0
        assert values["verification.simplicial_automorphisms.calls"] > 0


def _cli_reconstruct(monkeypatch, replacement):
    monkeypatch.setattr(sys.modules["trimat.cli"], "reconstruct", replacement)


def test_injected_wrong_reconstruction_is_a_failure(monkeypatch):
    real = sys.modules["trimat.cli"].reconstruct
    _cli_reconstruct(
        monkeypatch, lambda M, **kw: dataclasses.replace(real(M, **kw), all_solutions_isomorphic=False)
    )
    out = tiny("reindexed")
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] == 2
    assert "wrong 2/2" in "\n".join(out["lines"])


def test_injected_wrong_self_map_count_is_a_failure(monkeypatch):
    monkeypatch.setattr(tm, "extend_to_simplicial", lambda K, K2, f: tm.NonExtendable(witness_vertex="x"))
    out = tiny("selfmaps")
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == out["result"]["attempted"] == 2


def test_injected_wrong_verdict_fails_the_corpus(monkeypatch):
    monkeypatch.setattr(sys.modules["trimat.verification"], "simplicial_automorphisms", lambda K: [])
    out = tiny("corpus")
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == 1


def test_failure_classes(monkeypatch):
    def raises(exc):
        def replacement(M, **kw):
            raise exc

        return replacement

    _cli_reconstruct(monkeypatch, raises(tm.ReconstructionError("no surface")))
    assert "exit2 2/2" in "\n".join(tiny("reindexed")["lines"])
    _cli_reconstruct(monkeypatch, raises(RecursionError()))
    assert "exception 2/2" in "\n".join(tiny("reindexed")["lines"])

    def spins(M, **kw):
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    _cli_reconstruct(monkeypatch, spins)
    monkeypatch.setitem(WORKLOADS, "reindexed", dataclasses.replace(WORKLOADS["reindexed"], limit_s=0.3))
    out = tiny("reindexed", max_ops=1)
    assert "timeout 1/1" in "\n".join(out["lines"])
    assert out["result"]["correct"] is True and out["result"]["failed"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "corpus", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
