"""Benchmark of pel: seeded workloads through its public entry points.

    python3 perfbench/run.py --workload search-3m --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; pel is imported from ``src/``.  Workloads
(see ``workloads.py`` and README.md): ``search-3m``, ``search-4m`` and
``dense``.  One closed-loop client runs the workload's job stream for
``--seconds`` and checks every output against a known answer.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes), throughput, job latency, search quality and peak memory.
Times are rescaled to the nominal machine speed measured by
``calibration.py``; the raw figures go into the run record.
``--trace 1`` runs a fixed prefix of the stream three times, untraced,
traced and at ``threads=2``, and reports the per-layer metrics of the traced
pass, the tracing overhead and the thread-scaling ratio with its base.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(host, percentiles used, failures) and, for a traced run, its spans are
written under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass

#: BLAS runs single-threaded (set before numpy loads, inherited by the set-up
#: probes) so that a result does not depend on the load on the other cores;
#: pel's own thread pool is measured separately, at threads=2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import calibration  # noqa: E402  (numpy must load after the thread pinning)
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("search-3m", "search-4m", "dense")
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
#: a latency percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


def load_pel():
    """Import pel from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pel", "cli.py")):
        raise SystemExit(f"error: no pel sources under {SRC}")
    sys.path.insert(0, SRC)
    import pel.cli

    if not os.path.abspath(pel.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: pel imported from {pel.__file__}, not {SRC}")
    # the criterion-9 cell on dense runs at cutoff 9 on purpose
    warnings.filterwarnings("ignore", message="cutoff", category=UserWarning)
    import workloads

    return workloads


def host_record() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def time_setup(workload: str, seed: int, calibrator) -> tuple:
    """Wall time of a fresh interpreter that imports pel.cli and makes the
    workload's warm-up call, then exits; with the slowdown measured around it."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    before = calibrator.slowdown()
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    return seconds, 0.5 * (before + calibrator.slowdown())


@dataclass
class Record:
    kind: str
    start: float
    end: float
    ops: int
    problems: list
    payload: str | None
    best: float | None
    #: mean calibration slowdown of the job's round
    slowdown: float = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def nominal_seconds(self) -> float:
        """Job time rescaled to the calibration kernel's nominal speed."""
        return self.seconds / self.slowdown


def run_job(job, threads: int) -> Record:
    """Run one job; an exception is a failed output check, never a crash."""
    start = time.perf_counter()
    try:
        ops, payload, problems, best = job(threads)
    except Exception as exc:  # the run must go on and count the failure
        ops, payload, problems, best = 0, None, [f"{type(exc).__name__}: {exc}"], None
    return Record(job.kind, start, time.perf_counter(), ops, problems, payload, best)


def run_phase(workload, seed: int, seconds: float, calibrator, *,
              threads: int = 1, min_jobs: int = 0, tracer=None) -> list:
    """Closed loop over the seeded stream, one round at a time, until
    ``seconds`` have passed and at least ``min_jobs`` jobs ran.  Each round
    is bracketed by calibrations; its jobs carry the mean slowdown of the two
    (the calibrations themselves are outside every job's time)."""
    stream = workload.stream(seed)
    records = []
    before = calibrator.slowdown()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < min_jobs:
        batch = []
        for _ in range(workload.round_jobs):
            if tracer is not None:
                tracer.job = len(records) + len(batch)
            batch.append(run_job(next(stream), threads))
        after = calibrator.slowdown()
        for record in batch:
            record.slowdown = 0.5 * (before + after)
        records.extend(batch)
        before = after
    return records


def ops_per_s(records, round_jobs: int) -> float:
    """Median over rounds of the round's ops per nominal second of job time."""
    rates = []
    for i in range(0, len(records) - round_jobs + 1, round_jobs):
        chunk = records[i:i + round_jobs]
        rates.append(sum(r.ops for r in chunk)
                     / math.fsum(r.nominal_seconds for r in chunk))
    return statistics.median(rates)


def percentile(values, q: int) -> float:
    """Linearly interpolated q-th percentile (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(count: int) -> int:
    """90, or the highest percentile with TAIL_SAMPLES samples beyond it
    (never below the median)."""
    return max(50, min(90, math.floor(100 * (1 - TAIL_SAMPLES / count))))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rerun_first(workload, seed: int, records) -> Record:
    """Run the stream's first job again: same seed, byte-identical output."""
    again = run_job(next(workload.stream(seed)), 1)
    if again.payload != records[0].payload:
        again.problems = again.problems + ["output differs from the first run"]
    return again


def compare_phases(reference, other, label: str) -> None:
    """Jobs that ran in both phases must emit byte-identical documents."""
    for a, b in zip(reference, other):
        if a.payload != b.payload and not b.problems:
            b.problems = [f"output differs from the untraced threads=1 run ({label})"]


def end_to_end(workload, records, setups) -> tuple:
    """The end-to-end metrics; times are rescaled to nominal machine speed,
    the raw figures go into the run record."""
    job_ms = [r.nominal_seconds * 1e3 for r in records]
    raw_ms = [r.seconds * 1e3 for r in records]
    tail_q = tail_percentile(len(job_ms))
    quality = [r.best for r in records[:workload.quality_jobs] if r.best is not None]
    metrics = {
        "setup_s": (statistics.median(t / slow for t, slow in setups), "s"),
        "ops_per_s": (ops_per_s(records, workload.round_jobs), "1/s"),
        "latency_ms_p50": (percentile(job_ms, 50), "ms"),
        "latency_ms_p90": (percentile(job_ms, tail_q), "ms"),
        "best_x": (statistics.fmean(quality), "X"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_rate = sum(r.ops for r in records) / math.fsum(r.seconds for r in records)
    details = {
        "jobs": len(records),
        "latency_tail_percentile": tail_q,
        "quality_samples": len(quality),
        "slowdown_median": statistics.median(r.slowdown for r in records),
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "ops_per_s": raw_rate,
            "latency_ms_p50": percentile(raw_ms, 50),
            "latency_ms_p90": percentile(raw_ms, tail_q),
        },
        "setup_samples": setups,
        "job_seconds": [round(r.seconds, 6) for r in records],
    }
    return metrics, details


def traced_run(workload, seed: int, calibrator) -> tuple:
    """Untraced, traced and threads=2 passes over the same fixed job list, so
    that counts repeat exactly for a seed."""
    jobs = workload.trace_jobs
    untraced = run_phase(workload, seed, 0.0, calibrator, min_jobs=jobs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, seed, 0.0, calibrator, min_jobs=jobs,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    threaded = run_phase(workload, seed, 0.0, calibrator, min_jobs=jobs, threads=2)
    compare_phases(untraced, traced, "traced")
    compare_phases(untraced, threaded, "threads=2")

    base = ops_per_s(untraced, workload.round_jobs)
    with_trace = ops_per_s(traced, workload.round_jobs)
    two = ops_per_s(threaded, workload.round_jobs)
    metrics = tracing.per_layer_metrics(tracer.spans)
    metrics.update({
        "bench.ops_per_s_untraced": (base, "1/s"),
        "bench.ops_per_s_traced": (with_trace, "1/s"),
        "bench.trace_overhead": (base / with_trace - 1.0, "fraction"),
        "bench.ops_per_s_threads2": (two, "1/s"),
        "bench.threads2_speedup": (two / base, "ratio"),
        "bench.slowdown": (statistics.median(r.slowdown for r in traced), "ratio"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    details = {"spans": os.path.relpath(spans_path, ROOT),
               "span_count": len(tracer.spans),
               "jobs_per_phase": [len(untraced), len(traced), len(threaded)]}
    return metrics, details, untraced + traced + threaded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_pel()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.warm_up(args.seed)
        return 0

    host = host_record()
    print(json.dumps({"host": host}), flush=True)
    calibrator = calibration.Calibrator()
    if args.trace:
        workload.warm_up(args.seed)
        metrics, details, records = traced_run(workload, args.seed, calibrator)
    else:
        setups = [time_setup(args.workload, args.seed, calibrator)
                  for _ in range(SETUP_PROBES)]
        workload.warm_up(args.seed)
        records = run_phase(workload, args.seed, args.seconds, calibrator,
                            min_jobs=workload.quality_jobs)
        metrics, details = end_to_end(workload, records, setups)
        records.append(rerun_first(workload, args.seed, records))

    failures = [(r.kind, r.problems) for r in records if r.problems]
    for kind, problems in failures[:20]:
        print(f"check failed: {kind}: {'; '.join(problems)}", file=sys.stderr)
    details["jobs_by_kind"] = Counter(r.kind for r in records)
    details["failed_by_kind"] = Counter(kind for kind, _ in failures)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "host": host,
                   "details": details, "result": result}, fh, indent=1)
    print(json.dumps({"record": os.path.relpath(record_path, ROOT)}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
