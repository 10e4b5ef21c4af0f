"""The klforge benchmark: exact verification workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload, traced as well

One operation is one verifier call, a "check".  The checks of a round run
back to back on one thread of one process: a closed loop with one client.
Every round runs in a fresh interpreter (worker.py), because the library
keeps module-level pools that would make later rounds of one process
cheaper than a user's cold invocation.  Each round takes its own order of
the case list from the seed.  Rounds repeat until ``--seconds`` have
passed; each end-to-end metric is the median over the rounds.  With
``--trace 1`` one more round runs with spans (spans.py) and the per-layer
metrics come from it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones when traced).  The lines before it print every metric by
name and unit, the times in seconds too.  Stdlib only; the program is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("main-theorem", "memo-warm", "product-vanishing", "power-identity")
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
ROUND_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

# The metrics of the result line.  Times of checks are given in "ref", the
# round's mean reference-sample time (worker.py), because the seconds drift
# with the shared host's speed; the seconds are printed alongside.
E2E_UNITS = {
    "wall_ref": "ref",
    "check_p50_ref": "ref",
    "check_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
RAW_UNITS = {
    "wall_s": "s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "ref_ms": "ms",
}

# Spans whose share of the traced round is reported, with their calls.
SPAN_METRICS = ["symgroup.bruhat_leq", "kl.kl_poly", "kl.parabolic_q",
                *(f"kl.parabolic_q.n{n}" for n in range(2, 10)),
                "segcomb", "pbw.product", "transition.expand_G_in_E",
                "transition.g_star_power"]
LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{name}.{field}": unit for name in SPAN_METRICS
       for field, unit in (("calls", "count"), ("self_pct", "%"))},
    "verify.self_pct": "%",
    "verify.checks": "count",
    "verify.pass": "count",
    "verify.skipped": "count",
    "verify.fail": "count",
    "verify.error": "count",
    "kl.memo.load_pct": "%",
    "kl.memo.records": "count",
    "kl.memo.bytes": "B",
    "kl.memo.nonzero_pct": "%",
    "kl.memo.records_written": "count",
    "pbw.product.terms": "count",
    "pbw.product.tainted": "count",
    "pbw.determined_pct": "%",
    "transition.expand_G_in_E.errors": "count",
    "repo.source_lines": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a worker died)."""


def memo_counters(path: Path) -> dict:
    """Counters of a KL memo file, read from the file itself."""
    if not path.exists():
        return {"records": 0, "bytes": 0, "nonzero": 0, "zero_by_n": {}}
    records = nonzero = 0
    zero_by_n: dict[int, int] = {}
    with open(path, "rb") as fh:
        for line in fh:
            rec = json.loads(line)
            records += 1
            if rec["p"]:
                nonzero += 1
            else:
                zero_by_n[rec["n"]] = zero_by_n.get(rec["n"], 0) + 1
    return {"records": records, "bytes": path.stat().st_size, "nonzero": nonzero,
            "zero_by_n": dict(sorted(zero_by_n.items()))}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "klforge").glob("*.py"))


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum of a shorter list."""
    if not samples:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _worker(mode: str, workload: str, seed: int, round_no: int, max_n: int | None,
            memo: Path | None = None, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--round", str(round_no),
           "--trace", str(int(trace))]
    if max_n is not None:
        cmd += ["--max-n", str(max_n)]
    if memo is not None:
        cmd += ["--memo", str(memo)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _round_metrics(r: dict) -> dict:
    """Metrics of one round; timings are None when no check succeeded."""
    lat = r["latencies_s"]
    ref = r["ref_s"]
    out = {"ref_ms": 1000 * ref, "peak_rss_mb": r["peak_rss_mb"],
           "tail_pct": None, "tail_beyond": None}
    for name in ("wall_s", "check_p50_ms", "check_tail_ms", "wall_ref",
                 "check_p50_ref", "check_tail_ref"):
        out[name] = None
    if lat:
        wall, p50 = r["open_s"] + sum(lat), statistics.median(lat)
        value, out["tail_pct"], out["tail_beyond"] = tail(lat)
        out.update(wall_s=wall, check_p50_ms=1000 * p50, check_tail_ms=1000 * value,
                   wall_ref=wall / ref, check_p50_ref=p50 / ref,
                   check_tail_ref=value / ref)
    return out


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def layer_metrics(traced: dict, untraced_wall_ref: float | None, memo: dict | None,
                  records_written: int, load_s: float) -> dict:
    """The per-layer metrics of one traced round.  The tracing overhead
    compares it with the untraced median at the traced round's host speed."""
    spans = traced["spans"]
    metrics = _round_metrics(traced)
    wall = traced["timed_s"]

    def span(name: str) -> dict:
        if name == "kl.parabolic_q":  # the sum of its n-split spans
            parts = [v for k, v in spans.items() if k.startswith("kl.parabolic_q.n")]
            return {"calls": sum(p["calls"] for p in parts),
                    "self_s": sum(p["self_s"] for p in parts), "counters": {}}
        return spans.get(name, {"calls": 0, "self_s": 0.0, "errors": 0, "counters": {}})

    out = {"trace.wall_s": wall, "trace.overhead_s": None}
    if metrics["wall_ref"] is not None and untraced_wall_ref is not None:
        out["trace.overhead_s"] = (metrics["wall_ref"] - untraced_wall_ref) * traced["ref_s"]
    for name in SPAN_METRICS:
        s = span(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_pct"] = _share(s["self_s"], wall)
    out["verify.self_pct"] = _share(span("verify")["self_s"], wall)
    statuses = traced["statuses"]
    out["verify.checks"] = traced["attempted"]
    for status in ("pass", "skipped", "fail"):
        out[f"verify.{status}"] = statuses.get(status, 0)
    out["verify.error"] = sum(traced["errors"].values())
    memo = memo or {"records": 0, "bytes": 0, "nonzero": 0}
    out["kl.memo.load_pct"] = _share(load_s, wall)
    out["kl.memo.records"] = memo["records"]
    out["kl.memo.bytes"] = memo["bytes"]
    out["kl.memo.nonzero_pct"] = _share(memo["nonzero"], memo["records"])
    out["kl.memo.records_written"] = records_written
    product = span("pbw.product")["counters"]
    terms, tainted = product.get("terms", 0), product.get("tainted", 0)
    out["pbw.product.terms"] = terms
    out["pbw.product.tainted"] = tainted
    out["pbw.determined_pct"] = _share(terms, terms + tainted)
    out["transition.expand_G_in_E.errors"] = span("transition.expand_G_in_E").get("errors", 0)
    out["repo.source_lines"] = source_lines()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_n: int | None = None) -> dict:
    """Every round of one workload; returns the result and what it saw."""
    if not (SRC / "klforge" / "__init__.py").is_file():
        raise BenchError(f"no klforge sources under {SRC}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_rounds(workload, seed, seconds, trace, max_n, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run_rounds(workload: str, seed: int, seconds: float, trace: bool,
                max_n: int | None, work: Path) -> dict:
    problems: list[str] = []
    memo = None if workload in ("product-vanishing", "power-identity") else work / "memo.jsonl"
    base_setup = 0.0
    digests = set()
    memo_before = None
    if workload == "memo-warm":
        # set-up writes the memo file exactly as main-theorem does
        writer = _worker("run", "main-theorem", seed, 0, max_n, memo)
        base_setup = writer["setup_s"] + writer["timed_s"]
        digests.add(writer["digest"])
        problems += writer["problems"]
        memo_before = memo_counters(memo)

    def records_written() -> int:
        before = memo_before["records"] if memo_before else 0
        return memo_counters(memo)["records"] - before if memo is not None else 0

    rounds = []
    setups = []
    written = []
    started = perf_counter()
    while not rounds or perf_counter() - started < seconds:
        if workload == "main-theorem":
            memo.unlink(missing_ok=True)  # a fresh memo file every round
        r = _worker("run", workload, seed, len(rounds), max_n, memo)
        rounds.append(r)
        setups.append(r["setup_s"])
        written.append(records_written())
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker("setup", workload, seed, len(setups), max_n)["setup_s"])

    per_round = [_round_metrics(r) for r in rounds]
    metrics = {name: _median([m[name] for m in per_round])
               for name in [*E2E_UNITS, *RAW_UNITS] if name != "setup_s"}
    metrics["setup_s"] = base_setup + statistics.median(setups)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["statuses"].get("fail", 0) + sum(r["errors"].values()) for r in rounds)
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "statuses": rounds[0]["statuses"],
        "errors": rounds[0]["errors"],
        "error_messages": rounds[0]["error_messages"],
        "tail": (per_round[0]["tail_pct"], per_round[0]["tail_beyond"],
                 len(rounds[0]["latencies_s"])),
        "setup_samples": len(setups),
        "metrics": metrics,
        "memo": memo_counters(memo) if memo is not None else None,
    }

    if trace:
        if workload == "main-theorem":
            memo.unlink(missing_ok=True)
        traced = _worker("run", workload, seed, len(rounds), max_n, memo, trace=True)
        rounds.append(traced)
        written.append(records_written())
        result["spans"] = traced["spans"]
        result["layers"] = layer_metrics(traced, metrics["wall_ref"], result["memo"],
                                         written[-1], traced["open_s"])

    # every round, traced or not, must give the same reports and memo writes
    digests |= {r["digest"] for r in rounds}
    for r in rounds:
        problems += r["problems"]
    if len(digests) != 1:
        problems.append(f"report digests differ between rounds: {sorted(digests)}")
    if len(set(written)) > 1:
        problems.append(f"rounds wrote different memo record counts: {written}")
    if workload == "memo-warm" and any(written):
        problems.append(f"memo-warm appended memo records: {written}")
    result["digest"] = sorted(digests)[0]
    result["problems"] = problems
    result["correct"] = not problems
    return result


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_lines(res: dict) -> list[str]:
    pct, beyond, n = res["tail"]
    lines = [f"# {res['workload']} seed={res['seed']} rounds={res['rounds']} "
             f"attempted={res['attempted']} failed={res['failed']} "
             f"digest={res['digest']} correct={res['correct']}",
             f"# per round: statuses={json.dumps(res['statuses'], sort_keys=True)} "
             f"errors={json.dumps(res['errors'], sort_keys=True)}"]
    lines += [f"# error {name}: {msg}" for name, msg in sorted(res["error_messages"].items())]
    for name, unit in {**E2E_UNITS, **RAW_UNITS}.items():
        lines.append(f"{res['workload']} {name} {_fmt(res['metrics'][name])} {unit}")
    lines.append(f"{res['workload']} failed_share {_fmt(res['failed_share'])} 1")
    lines.append(f"# check_tail_ms is p{_fmt(pct)} of {n} checks per round "
                 f"({beyond} beyond it); set-up measured {res['setup_samples']} times")
    if res["memo"]:
        lines.append(f"# memo file: {json.dumps(res['memo'], sort_keys=True)}")
    for name, st in res.get("spans", {}).items():
        lines.append(f"# span {name}: calls={st['calls']} self_s={_fmt(st['self_s'])} "
                     f"total_s={_fmt(st['total_s'])} errors={st['errors']} "
                     f"{json.dumps(st['counters'], sort_keys=True)}")
    for name, unit in LAYER_UNITS.items() if "layers" in res else ():
        lines.append(f"{res['workload']} {name} {_fmt(res['layers'][name])} {unit}")
    lines += [f"# problem: {p}" for p in res["problems"][:10]]
    return lines


def _metrics_json(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload, traced too)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-n", type=int,
                        help="drop cases with n = m*k above this, for a quick smaller grid")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.max_n)
            print("\n".join(report_lines(res)))
            values, units = ((res["layers"], LAYER_UNITS) if args.trace
                             else (res["metrics"], E2E_UNITS))
            print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                              "failed": res["failed"],
                              "metrics": _metrics_json(values, units)}))
            return 0
        summary = {}
        for workload in WORKLOADS:
            res = run_workload(workload, args.seed, args.seconds, True, args.max_n)
            print("\n".join(report_lines(res)), flush=True)
            summary[workload] = {k: res[k] for k in ("correct", "attempted", "failed",
                                                     "failed_share", "errors", "digest")}
            summary[workload]["metrics"] = _metrics_json(res["metrics"],
                                                         {**E2E_UNITS, **RAW_UNITS})
            summary[workload]["per_layer"] = _metrics_json(res["layers"], LAYER_UNITS)
        print(json.dumps(summary))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
