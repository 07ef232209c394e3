"""hashprop benchmark: runs one workload in-process through ``hashprop.cli.main``.

    python3 bench/run.py --workload sw_exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
checkout that holds this file.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the first cycles of the op pool
untraced and then traced, and reports the per-layer metrics.  The last line
of stdout is the JSON result; the lines before it name every metric with its
unit and sample count, and give the run's provenance.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

for var in ("HASHPROP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 3
MIN_OPS = 100  # so that op_ms_p90 has ten samples above it
MAX_TIMED_S = 140.0    # hard stop for the timed loop, whatever MIN_OPS says


class HarnessError(Exception):
    """The benchmark cannot run here (no checkout package, bad arguments)."""


@functools.cache
def import_package():
    """Import hashprop from this checkout's src/ and refuse any other copy."""
    if not os.path.isdir(os.path.join(SRC, "hashprop")):
        raise HarnessError(f"no hashprop package under {SRC}")
    sys.path.insert(0, SRC)
    import hashprop
    import hashprop.cli
    resolved = os.path.realpath(hashprop.__file__)
    if not resolved.startswith(os.path.realpath(SRC) + os.sep):
        raise HarnessError(f"hashprop resolved to {resolved}, outside {SRC}")
    return hashprop


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``hashprop.cli`` from
    this checkout and exits: the start-up part of set-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hashprop.cli"], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return time.perf_counter() - t0


def provenance(hashprop, seed: int) -> dict:
    import numpy as np
    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for entry in sorted(os.listdir(base)):
            with contextlib.suppress(OSError):
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
                if level in ("2", "3"):
                    caches[f"L{level}"] = size
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "git_commit": commit,
        "HASHPROP_THREADS": os.environ["HASHPROP_THREADS"],
        "hashprop_file": os.path.realpath(hashprop.__file__),
    }


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Runner:
    """Runs ops through the (possibly wrapped) ``cli.main`` and keeps each
    op's latency, parsed output and failure reason."""

    def __init__(self, cli, workload, mutate=None):
        self.cli = cli
        self.workload = workload
        self.mutate = mutate  # test hook: alters an op's stdout before parsing
        self.latencies: list[float] = []
        self.records: list[tuple] = []  # (spec, parsed or None, failure or None)

    def run_op(self, spec):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        parsed, failure = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(spec.argv))
            except Exception:  # a crash inside the program fails this op only
                rc, failure = None, traceback.format_exc(limit=-3)
        text = out.getvalue()
        if self.mutate is not None:
            text = self.mutate(len(self.records), text)
        if failure is None and rc != 0:
            failure = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
        if failure is None:
            try:
                parsed = self.workload.parse(spec, text)
            except Exception as exc:  # any parse fault is this op's failure
                failure = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        self.records.append((spec, parsed, failure))

    def failures(self) -> dict[int, str]:
        """Every failed op: exit code and parse faults, then the reference checks."""
        bad = {i: f for i, (_, _, f) in enumerate(self.records) if f}
        done = [(i, spec, parsed) for i, (spec, parsed, f) in enumerate(self.records) if not f]
        bad.update(self.workload.check(done))
        return bad


def set_up(workload_cls, seed: int, tiny: bool, cli):
    """Generate and write the inputs, then run the workload's warm-up ops.
    Returns (workload, op pool, input dir, seconds taken)."""
    t0 = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    workload = workload_cls()
    pool = workload.build(seed, tmp, tiny)
    warm = Runner(cli, workload)
    for spec in workload.warmup_ops(pool):
        warm.run_op(spec)
    return workload, pool, tmp, time.perf_counter() - t0


def timed_loop(runner, pool, cycle_len, seconds, min_ops, max_seconds):
    """Whole cycles of the pool, wrapping around, until ``seconds`` have
    passed and ``min_ops`` ops are done (or ``max_seconds`` have passed).
    Returns (ops, wall seconds) per cycle."""
    start = time.perf_counter()
    cycles = []
    i = 0
    while True:
        t0 = time.perf_counter()
        ops = pool[i:i + cycle_len]
        for spec in ops:
            runner.run_op(spec)
        cycles.append((len(ops), time.perf_counter() - t0))
        i = (i + cycle_len) % len(pool)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(runner.records) >= min_ops) or elapsed >= max_seconds:
            return cycles


def percentile(values, q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        mutate=None, min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run.  Returns the full result: the contract fields, the
    metric units and sample counts, per-kind latencies and provenance."""
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise HarnessError(f"unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}")
    hashprop = import_package()
    cli = hashprop.cli
    prov = provenance(hashprop, seed)

    setups, dirs = [], []
    try:
        startups = [startup_seconds() for _ in range(setup_repeats)]
        for _ in range(setup_repeats):
            workload, pool, tmp, dt = set_up(WORKLOADS[workload_name], seed, tiny, cli)
            setups.append(dt)
            dirs.append(tmp)
        setup_s = statistics.median(startups) + statistics.median(setups)
        if trace:
            result = traced_run(cli, workload, pool, seed, mutate)
        else:
            result = timed_run(cli, workload, pool, seconds, mutate, min_ops)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    result["provenance"] = prov
    result["workload"] = workload_name
    result["setup"] = {"startup_s": startups, "inputs_and_warmup_s": setups}
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s",
                                        "samples": len(setups)}
    return result


def summarize(attempted: int, failures: dict) -> dict:
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "fail_frac": len(failures) / attempted,
            "failures": {str(i): r for i, r in list(failures.items())[:20]}}


def timed_run(cli, workload, pool, seconds, mutate, min_ops) -> dict:
    runner = Runner(cli, workload, mutate)
    cpu0 = cpu_seconds()
    cycles = timed_loop(runner, pool, workload.cycle_len, seconds, min_ops, MAX_TIMED_S)
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = len(runner.records)
    lat_ms = [1e3 * v for v in runner.latencies]
    # the median over cycles, each the same op mix, so that a stall of the
    # host that hits a few cycles does not move the rate
    rate = statistics.median(n / wall for n, wall in cycles)
    result = summarize(ops, runner.failures())
    result["metrics"] = {
        "ops_per_s": {"value": rate, "unit": "ops/s", "samples": len(cycles)},
        "op_ms_p50": {"value": percentile(lat_ms, 0.5), "unit": "ms", "samples": ops},
        "op_ms_p90": {"value": percentile(lat_ms, 0.9), "unit": "ms", "samples": ops},
        "cpu_ms_per_op": {"value": 1e3 * cpu / ops, "unit": "ms", "samples": ops},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
    }
    kinds: dict[str, list[float]] = {}
    for (spec, _, _), v in zip(runner.records, lat_ms):
        kinds.setdefault(spec.kind, []).append(v)
    result["by_kind_ms"] = {k: {"ops": len(v), "median": statistics.median(v)}
                            for k, v in sorted(kinds.items())}
    wall = sum(w for _, w in cycles)
    result["timed"] = {"cycles": len(cycles), "wall_s": wall, "overall_ops_per_s": ops / wall}
    return result


def traced_run(cli, workload, pool, seed, mutate) -> dict:
    """The pool's first ``trace_cycles`` cycles, once untraced and once
    traced; per-layer metrics come from the traced pass."""
    from tracing import LAYER_METRICS, Tracer, patched

    ops = pool[:workload.trace_cycles * workload.cycle_len]
    plain = Runner(cli, workload, mutate)
    t0 = time.perf_counter()
    for spec in ops:
        plain.run_op(spec)
    plain_rate = len(ops) / (time.perf_counter() - t0)

    tracer = Tracer()
    traced = Runner(cli, workload, mutate)
    with patched(tracer):
        t0 = time.perf_counter()
        for i, spec in enumerate(ops):
            tracer.op_id = i
            traced.run_op(spec)
        traced_rate = len(ops) / (time.perf_counter() - t0)

    failures = plain.failures()
    failures.update({len(ops) + i: r for i, r in traced.failures().items()})
    self_err = tracer.max_self_sum_error()
    if self_err > 1e-6:
        failures["self_times"] = f"self times miss an op's wall time by {self_err} s"
    result = summarize(2 * len(ops), failures)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    values = tracer.layer_metrics(len(ops), plain_rate / traced_rate)
    result["metrics"] = {k: {"value": v, "unit": units[k], "samples": len(ops)}
                         for k, v in values.items()}
    result["trace"] = {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
                       "ops": len(ops), "spans": len(tracer.spans),
                       "max_self_sum_error_s": self_err,
                       "ratio_bases": tracer.ratio_bases()}
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is the held-out seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="also write the full result JSON here")
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {result['workload']} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"  {'fail_frac':40s} {result['fail_frac']:.6g} fraction (n={result['attempted']})")
    for i, reason in result["failures"].items():
        print(f"  FAILED op {i}: {reason}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                         for k, m in result["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
