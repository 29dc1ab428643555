"""Layered benchmark of the selfcal package.

    python3 perfbench/run.py --workload eval_default --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
the checkout; nothing is installed. With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it is the
per-layer result of one traced unit of work. The line before it records the
environment. Scratch files go to ``.perfbench_out/`` in the checkout. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:            # must precede the first numpy import
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pinning above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
HELD_OUT_SEED = 9001              # kept back for confirming later claims
SETUP_REPEATS = 3
ACCOUNTING_TOLERANCE = 0.05       # unattributed share of the traced wall time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "selfcal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'selfcal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads            # imports numpy and selfcal from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](ROOT, SCRATCH)
    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)
    if args.trace:
        result = traced_run(w, args)
    else:
        result = untraced_run(w, args)
    report = dict(result, environment=env, workload=args.workload)
    out = SCRATCH / f"result_{args.workload}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def untraced_run(w, args) -> dict:
    import_s = statistics.median(cold_import_seconds() for _ in range(SETUP_REPEATS))
    prepare_s = statistics.median(timed_prepare(w, args.seed) for _ in range(SETUP_REPEATS))

    t0 = time.perf_counter()
    ops_deadline = t0 + args.seconds * (1.0 - w.request_share)
    results, n_ops, attempted, failed = [], 0, 0, 0
    while True:
        res = safe(w.op, n_ops)
        n_ops += 1
        attempted += 1
        failed += 1 if res is None else safe(w.check, res, default=1)
        if res is not None:
            results.append(res)
        # Keep requests on schedule, so that they sample the whole run.
        elapsed = time.perf_counter() - t0
        w.requests.run(int(w.requests.n * min(1.0, elapsed / args.seconds))
                       - len(w.requests.answers))
        typical = statistics.mean(r["op_s"] for r in results) if results else 0.0
        if n_ops >= w.min_ops and time.perf_counter() + typical > ops_deadline:
            break
    w.requests.run()
    measured_s = time.perf_counter() - t0
    w.requests.check()
    attempted += w.requests.n
    failed += w.requests.failed
    extra_attempted, extra_failed = w.finish()
    attempted += extra_attempted
    failed += extra_failed

    # Ops differ in their inputs and a run holds few of them, so op time is a
    # mean (total over count), not the median of a handful. Where ops of
    # several groups take turns, the figures are for one op of each group.
    groups = {}
    for r in results:
        groups.setdefault(r.get("group"), []).append(r)
    per_group = [{key: statistics.mean(r[key] for r in rs) for key in ("op_s", "records", "records_s")}
                 for rs in groups.values()]
    latencies = w.requests.latencies
    lat_ms = 1e3 * np.asarray(latencies)
    metrics = {
        "setup_s": import_s + prepare_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": sum(g["op_s"] for g in per_group),
        "records_per_s": sum(g["records"] for g in per_group) / sum(g["records_s"] for g in per_group),
        "score_p50_ms": float(np.percentile(lat_ms, 50)),
        "score_p99_ms": windowed_p99(lat_ms),
    }
    units = {"setup_s": "s", "peak_rss_mb": "MiB", "wall_s": "s", "records_per_s": "1/s",
             "score_p50_ms": "ms", "score_p99_ms": "ms"}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": {
            "import_s": import_s, "prepare_s": prepare_s, "measured_s": measured_s,
            "ops": len(results), "op_s": [r["op_s"] for r in results],
            "score_samples": len(latencies), "error_rate": failed / attempted,
        },
    }


def windowed_p99(values, window: int = 1000) -> float:
    """Median over consecutive windows of ``window`` requests of each
    window's 99th percentile (10 samples beyond it per window). One burst of
    interference from other work on the host then moves one window, not the
    figure."""
    n = len(values) // window
    return float(np.median([np.percentile(values[i * window:(i + 1) * window], 99)
                            for i in range(n)]))


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that only imports selfcal."""
    t = time.perf_counter()
    run_child(["-c", "import selfcal"])
    return time.perf_counter() - t


def run_child(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)


def timed_prepare(w, seed: int) -> float:
    t = time.perf_counter()
    w.prepare(seed)
    return time.perf_counter() - t


def safe(fn, *args, default=None):
    """Call ``fn``; on an exception print the traceback and return ``default``."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return default


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(w, args) -> dict:
    from spans import Tracer

    imports = [import_profile() for _ in range(SETUP_REPEATS)]
    w.prepare(args.seed)

    attempted = failed = 0
    walls = {}
    for label, tracer in (("untraced", None), ("traced", Tracer())):
        w.requests.reset()
        if tracer is not None:
            tracer.install()
        try:
            results = [w.op(k) for k in range(w.min_ops)]
            w.requests.run()
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls[label] = sum(r["timed_s"] for r in results) + sum(w.requests.latencies)
        attempted += len(results) + w.requests.n
        w.requests.check()
        failed += sum(w.check(r) for r in results) + w.requests.failed

    summary = tracer.summary(walls["traced"])
    metrics = summary["metrics"]
    unattributed = metrics["trace.unattributed_s"] / walls["traced"]
    attempted += 1
    failed += abs(unattributed) > ACCOUNTING_TOLERANCE
    metrics.update({
        "cli.bytes_written": sum(r.get("bytes_written", 0) for r in results),
        "import.selfcal_s": statistics.median(p["selfcal"] for p in imports),
        "import.scipy_stats_s": statistics.median(p["scipy.stats"] for p in imports),
        "trace.wall_s": walls["traced"],
        "trace.untraced_wall_s": walls["untraced"],
        "trace.overhead_s": walls["traced"] - walls["untraced"],
        "trace.unattributed_ratio": unattributed,
    })
    tracer.save(SCRATCH / f"spans_{args.workload}.npz")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "details": {"functions": summary["functions"],
                    "accounting_tolerance": ACCOUNTING_TOLERANCE},
    }


def import_profile() -> dict:
    """Cumulative import seconds of selfcal and of scipy.stats (0 when not
    imported), from ``python -X importtime`` in a fresh interpreter."""
    err = run_child(["-X", "importtime", "-c", "import selfcal"]).stderr
    found = {"selfcal": 0.0, "scipy.stats": 0.0}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in found:
            found[parts[2].strip()] = int(parts[1]) / 1e6
    return found


UNIT_SUFFIXES = (("_s", "s"), ("_ms", "ms"), ("encoder_bytes", "bytes_computed"),
                 ("bytes_written", "bytes"), ("ratio", "ratio"), ("share", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "caches": cpu_caches(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def cpu_caches() -> dict:
    """Unified/data cache sizes of cpu0 by level, as sysfs reports them."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
