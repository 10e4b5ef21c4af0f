"""One round of one workload, in a fresh interpreter.

run.py starts this file once per round so that every round starts from the
same cold process state, as a user's ``klforge`` invocation does: the
library keeps module-level pools that would otherwise carry over between
rounds.  The last line of standard output is a JSON object with the round's
set-up time, timings, statuses, output digest and peak RSS.

Modes: ``setup`` stops after the import and the case list, ``run`` also
runs the checks (with the spans of spans.py when ``--trace 1``).

Between checks, at most every SAMPLE_EVERY_S, the round times a fixed
reference computation (stdlib only, never the program).  Its mean time is
the round's unit "ref": the shared host's speed drifts by a third within
minutes, and a time divided by the reference time measured alongside it
drifts far less.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import resource
import statistics
import sys
from time import perf_counter

SAMPLE_EVERY_S = 0.1


def reference_sample() -> float:
    """Seconds taken by a fixed pure-Python computation of the same kind as
    the library's: permutation tuples, slicing, sorting and dict updates.
    The collector is off meanwhile, so the program's heap does not add to it."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(2):
            counts: dict[tuple, int] = {}
            for p in itertools.permutations(range(6)):
                key = tuple(sorted(p[:3])) + p[3:]
                counts[key] = counts.get(key, 0) + (p[0] * 3 + p[5]) % 13
        return perf_counter() - start
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--max-n", type=int)
    parser.add_argument("--memo", help="memo file of the KL table")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads  # imports klforge: part of the set-up time
    from klforge.kl import KLTable

    cases = workloads.permute(workloads.build_cases(args.workload, args.max_n),
                              args.seed, args.round)
    setup_s = perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []  # of the checks that succeeded
    checks_s = 0.0  # of every check
    statuses: dict[str, int] = {}
    errors: dict[str, int] = {}
    error_messages: dict[str, str] = {}  # the first message of each type
    reports = []
    entries: list[str] = []
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    else:
        tracer = contextlib.nullcontext()
    samples = [reference_sample()]
    last_sample = perf_counter()
    with tracer:
        table, open_s = None, 0.0
        if args.workload != "product-vanishing":  # the only one not using kl
            t0 = perf_counter()
            table = KLTable(args.memo)
            open_s = perf_counter() - t0
        for case in cases:
            if perf_counter() - last_sample >= SAMPLE_EVERY_S:
                samples.append(reference_sample())
                last_sample = perf_counter()
            t0 = perf_counter()
            try:
                rep = workloads.run_check(args.workload, table, case)
            except Exception as exc:  # a check that raises is counted and skipped
                checks_s += perf_counter() - t0
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                error_messages.setdefault(name, str(exc))
                entries.append(json.dumps({"case": repr(case), "error": name}))
                continue
            took = perf_counter() - t0
            checks_s += took
            statuses[rep.status] = statuses.get(rep.status, 0) + 1
            if rep.status != "fail":
                latencies.append(took)
            reports.append(rep)
    samples.append(reference_sample())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    entries += [workloads.digest_entry(r) for r in reports]
    problems = workloads.output_problems(args.workload, [r.to_json() for r in reports])
    out = {
        "setup_s": setup_s,
        "open_s": open_s,
        "ref_s": statistics.mean(samples),
        "ref_samples": len(samples),
        "latencies_s": latencies,
        "timed_s": open_s + checks_s,
        "statuses": statuses,
        "errors": errors,
        "error_messages": error_messages,
        "attempted": len(cases),
        "digest": workloads.digest(entries),
        "problems": problems[:5],
        "peak_rss_mb": rss_mb,
    }
    if args.trace:
        out["spans"] = tracer.to_json()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
