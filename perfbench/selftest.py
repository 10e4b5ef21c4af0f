"""Tests of the benchmark itself, on the quick grids (n = m*k <= 4).

    python3 -m pytest perfbench/selftest.py

Named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

QUICK_N = 4


@pytest.fixture(scope="module")
def results() -> dict:
    return {w: run.run_workload(w, seed=7, seconds=0, trace=True, max_n=QUICK_N)
            for w in run.WORKLOADS}


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_every_metric_is_printed_with_its_unit(results):
    for res in results.values():
        lines = run.report_lines(res)
        for name, unit in {**run.E2E_UNITS, **run.LAYER_UNITS}.items():
            assert any(line.startswith(f"{res['workload']} {name} ")
                       and line.endswith(f" {unit}") for line in lines), name


def test_statuses_account_for_every_check(results):
    for res in results.values():
        layers = res["layers"]
        assert (layers["verify.pass"] + layers["verify.skipped"] + layers["verify.fail"]
                + layers["verify.error"]) == layers["verify.checks"]
        per_round = sum(res["statuses"].values()) + sum(res["errors"].values())
        assert per_round * res["rounds"] == res["attempted"]
        assert res["failed_share"] == res["failed"] / res["attempted"]


def test_outputs_are_checked_and_repeat(results):
    for name in ("main-theorem", "memo-warm", "product-vanishing"):
        assert results[name]["correct"], results[name]["problems"]
        assert results[name]["failed"] == 0
    # memo-warm reads the file main-theorem writes and adds nothing to it
    assert results["memo-warm"]["digest"] == results["main-theorem"]["digest"]
    assert results["memo-warm"]["layers"]["kl.memo.records_written"] == 0
    assert results["main-theorem"]["layers"]["kl.memo.records_written"] > 0


def test_failures_are_counted_not_hidden(results):
    res = results["power-identity"]
    if res["failed"] == res["attempted"]:  # every check raised
        assert res["errors"] and all(v is None for k, v in res["metrics"].items()
                                     if k not in ("peak_rss_mb", "setup_s", "ref_ms"))
    else:
        assert res["metrics"]["wall_s"] is not None


def test_seed_permutes_the_full_grids():
    sizes = {"main-theorem": 638, "product-vanishing": 2904, "power-identity": 38}
    for workload, size in sizes.items():
        grid = workloads.build_cases(workload)
        assert len(grid) == size
        assert workloads.permute(grid, 0) == workloads.permute(grid, 0, 3) == grid
        shuffled = workloads.permute(grid, 5, 1)
        assert shuffled == workloads.permute(grid, 5, 1)
        assert shuffled not in (grid, workloads.permute(grid, 5, 2))
        assert sorted(map(repr, shuffled)) == sorted(map(repr, grid))


def test_spans_return_what_the_functions_return():
    from klforge.kl import KLTable

    def reports(workload: str) -> list[str]:
        table = KLTable()
        out = []
        for case in workloads.build_cases(workload, QUICK_N):
            try:
                out.append(workloads.digest_entry(workloads.run_check(workload, table, case)))
            except Exception as exc:
                out.append(type(exc).__name__)
        return out

    for workload in ("main-theorem", "product-vanishing", "power-identity"):
        plain = reports(workload)
        with spans.Tracer() as tracer:
            traced = reports(workload)
        assert traced == plain
        assert tracer.stats["verify"].calls == len(plain)
    for module_name, names in spans.PATCHES:
        module = sys.modules[module_name]
        for attr in names:
            assert not hasattr(getattr(module, attr), "__wrapped__"), (module_name, attr)


def test_span_passes_results_and_exceptions_through():
    tracer = spans.Tracer()
    marker = object()
    assert tracer.wrap(lambda: marker, "outer")() is marker

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "outer")()
    assert tracer.stats["outer"].calls == 2 and tracer.stats["outer"].errors == 1


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    assert run.tail([]) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "main-theorem",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
