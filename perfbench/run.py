"""Benchmark of `gradremedy run`: per-strategy step time, set-up time and
memory on a workload, or per-layer self times from a traced run.

    python3 perfbench/run.py --workload default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from a checkout that holds `src/gradremedy`. It prints one line per
metric (name, value, unit, sample count) and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. It exits 1 if
any call failed its correctness check and 2 if gradremedy is not there.
A copy of each result, with the environment it was measured in, goes to
`perfbench-out/`; with --trace 1 so do the spans of the last traced round.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import catalog  # pure data: imports neither numpy nor gradremedy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = "perfbench-out"  # relative to ROOT
BLAS_THREADS = "1"

# pinned before numpy is first imported, here and in every probe process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy

    import gradremedy

    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": gradremedy.active_backend(),
        "machine": platform.machine(),
    }


def _line(name: str, value: float, unit: str, samples: str, note: str = "") -> str:
    return f"  {name:<48} {value:>14.6g} {unit:<16} {samples:<10} {note}".rstrip()


def timed_run(workload, seed: int, seconds: float, work_dir: str) -> dict:
    import gradremedy.cli
    import harness

    setup: list[float] = []
    rss: list[float] = []
    probes = [lambda: setup.append(harness.setup_seconds(workload, seed, work_dir))
              ] * harness.SETUP_REPEATS
    probes.insert(len(probes) // 2,
                  lambda: rss.append(harness.peak_rss_mb(workload, seed, work_dir)))
    problems = []
    try:
        timed = harness.measure(workload, seed, seconds, work_dir,
                                gradremedy.cli.main, probes)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as err:
        # a probe failed: gradremedy cannot start or run in a fresh interpreter
        return {"metrics": {}, "report": [], "attempted": 1, "failed": 1,
                "problems": [str(err)], "calls": {}}
    problems += timed.problems
    metrics: dict[str, float] = {}
    report = []
    for label, calls in timed.calls.items():
        if calls:
            metrics[f"step_ratio_p50.{label}"] = harness.median_ratio(calls)
            raw = statistics.median(c.us_per_step for c in calls)
            ref = statistics.median(c.ref_us_per_step for c in calls)
            report.append((f"step_ratio_p50.{label}", f"n={len(calls)}",
                           f"median {raw:.6g} us/step, reference {ref:.6g} us/step"))
    pooled = [c for calls in timed.calls.values() for c in calls]
    try:
        call_tail, pct = harness.tail([c.us_per_step for c in pooled])
        ref_tail, _ = harness.tail([c.ref_us_per_step for c in pooled])
    except ValueError as err:
        problems.append(str(err))
    else:
        metrics["step_ratio_tail"] = call_tail / ref_tail
        report.append(("step_ratio_tail", f"n={len(pooled)}",
                       f"p{pct:.2f} of all strategies: {call_tail:.6g} us/step, "
                       f"reference {ref_tail:.6g} us/step"))
    metrics["setup_s"] = statistics.median(setup)
    report.append(("setup_s", f"n={len(setup)}", "median of fresh interpreters"))
    metrics["peak_rss_mb"] = rss[0]
    report.append(("peak_rss_mb", "n=1", "one call per strategy"))
    return {"metrics": metrics, "report": report, "attempted": timed.attempted,
            "failed": timed.failed, "problems": problems, "calls": timed.calls}


def traced_run(workload, seed: int, seconds: float, work_dir: str) -> dict:
    import gradremedy.cli
    import harness
    import spans

    traced = harness.measure_traced(workload, seed, seconds, work_dir, gradremedy.cli.main)
    problems = list(traced.problems)
    metrics: dict[str, float] = {}
    report = []
    if traced.calls and traced.untraced.get("naive"):
        metrics = harness.layer_metrics(traced)
        missed = harness.unreported_s(traced, metrics)
        if abs(missed) > 1e-6 * traced.span_s:
            problems.append(f"layer self times miss {missed:.6g} s of the traced calls")
        samples = f"calls={traced.calls}"
        report = [(name, samples, "") for name in metrics]
    else:
        problems.append("no traced call succeeded")
    spans.write_spans(
        os.path.join(RESULTS, f"spans-{workload.name}-seed{seed}.csv"), traced.last_round
    )
    if traced.missing:
        print(f"  not wrapped (gone from gradremedy): {', '.join(traced.missing)}")
    return {"metrics": metrics, "report": report, "attempted": traced.attempted,
            "failed": traced.failed, "problems": problems, "calls": traced.untraced}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workload = catalog.WORKLOADS[name]
    work_dir = os.path.join(RESULTS, "work")
    os.makedirs(work_dir, exist_ok=True)
    kind = "traced" if trace else "untraced"
    print(f"workload {name} ({kind}, seed {seed}, {seconds:g} s): {workload.why}")
    try:
        result = (traced_run if trace else timed_run)(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for metric, samples, note in result["report"]:
        m = catalog.METRICS[metric]
        note = note or (m.moves if trace else "")
        print(_line(metric, result["metrics"][metric], m.unit, samples, note))
    attempted, failed = result["attempted"], result["failed"]
    pct = 100.0 * failed / attempted if attempted else 100.0
    print(_line("failed_call_pct", pct, "%", f"n={attempted}"))
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")
    verdict = "PASS" if failed == 0 and not result["problems"] else "FAIL"
    print(f"  correctness: {verdict} ({attempted - failed}/{attempted} calls checked ok)")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "metrics": result["metrics"],
        "attempted": attempted, "failed": failed, "problems": result["problems"],
        # per sound untraced call: [us per step, reference us per step]
        "calls": {label: [[c.us_per_step, c.ref_us_per_step] for c in calls]
                  for label, calls in result["calls"].items()},
    }
    path = os.path.join(RESULTS, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="ascii") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    record["correct"] = verdict == "PASS"
    return record


def _values(metrics: dict[str, float]) -> dict:
    return {m: {"value": v, "unit": catalog.METRICS[m].unit} for m, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*catalog.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gradremedy", "cli.py")):
        print(f"error: no gradremedy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    os.makedirs(RESULTS, exist_ok=True)
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    names = list(catalog.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), env)
               for n in names]
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (
            _values(records[0]["metrics"]) if len(records) == 1
            else {r["workload"]: _values(r["metrics"]) for r in records}
        ),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
