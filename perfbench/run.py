"""Benchmark of the `qfeedback` command line, run from the repository root:

    python3 perfbench/run.py --workload sweep-qubit --seed 1 --seconds 30 --trace 0

A single-process, closed-loop harness (one client): it calls
`qfeedback.cli.main` in-process with generated argv, one invocation after the
other, writing every output into a temporary directory, and checks every
output outside the timed region. Workloads are described in
`perfbench/README.md` and generated in `workloads.py`.

--trace 0 measures the end-to-end metrics for --seconds of invocation time.
--trace 1 runs a fixed schedule (its size depends only on the workload and
--seconds) once untraced and once with every layer function wrapped, and
reports calls, total and self time per function, the computed counts and the
tracing overhead. The last line of stdout is the JSON result; a full run
record and the spans go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
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

import tracing
from workloads import SCALES, WORKLOADS, rounds

SRC = "src"
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 11
TAIL_PERCENTILES = (50, 90, 99, 99.9)
TAIL_BEYOND = 10
# Seconds one round takes at full scale on a 2-core x86 machine; the traced
# run sizes its fixed schedule from these so that it lasts about --seconds.
NOMINAL_ROUND_S = {"sweep-qubit": 0.55, "steady-qudit": 0.55, "trajectories": 3.6}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import qfeedback.cli; print(time.perf_counter() - t)")


def _import_in_fresh_process() -> float:
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(res.stdout.split()[-1])


def import_in_process() -> float:
    """Import time of `qfeedback.cli` in this process, after a fresh process
    has written the bytecode cache and warmed the file cache."""
    _import_in_fresh_process()
    sys.path.insert(0, os.path.abspath(SRC))
    t0 = time.perf_counter()
    import qfeedback.cli  # noqa: F401
    return time.perf_counter() - t0


def invoke(main, inv, tmp: str) -> tuple[float, int]:
    """Run one CLI invocation with stdout captured in the temp dir; (wall s, exit code)."""
    argv = inv.argv + (["--out", os.path.join(tmp, inv.out)] if inv.out else [])
    with open(os.path.join(tmp, "stdout.txt"), "w") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
    return wall, rc


def check(checks, inv, tmp: str, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if inv.command == "steady":
            with open(os.path.join(tmp, "stdout.txt")) as fh:
                return checks.check_steady(fh.read(), inv)
        path = os.path.join(tmp, inv.out)
        if inv.command == "sweep":
            return checks.check_sweep(path, inv)
        return checks.check_trajectories(path, inv)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {exc!r}"]


class Runner:
    """Runs invocations, checks them and keeps the tallies of one pass."""

    def __init__(self, main, checks, tmp: str):
        self.main, self.checks, self.tmp = main, checks, tmp
        self.failures: list[str] = []

    def run(self, inv, tracer=None) -> tuple[float, bool]:
        if tracer is not None:
            tracer.active = True
        wall, rc = invoke(self.main, inv, self.tmp)
        if tracer is not None:
            tracer.active = False
            if rc == 0 and inv.out:
                with open(os.path.join(self.tmp, inv.out), "rb") as fh:
                    data = fh.read()
                tracer.counts["cli.csv_rows"] += data.count(b"\n") - 1
                tracer.counts["cli.csv_bytes"] += len(data)
        errors = check(self.checks, inv, self.tmp, rc)
        if errors:
            msg = f"{' '.join(inv.argv)}: {'; '.join(errors[:3])}"
            self.failures.append(msg)
            print(f"FAILED {msg}", file=sys.stderr)
        return wall, not errors


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile in TAIL_PERCENTILES with at least TAIL_BEYOND samples
    above it (nearest rank); returns (value, percentile, samples beyond)."""
    n, ordered = len(walls), sorted(walls)
    fits = [p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= TAIL_BEYOND]
    p = max(fits) if fits else TAIL_PERCENTILES[0]
    rank = max(1, math.ceil(p / 100 * n))
    return ordered[rank - 1], p, n - rank


def _git_head() -> str | None:
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _openblas() -> tuple[str | None, int | None]:
    """(config string, thread count) of the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                return get_config().decode(), get_threads()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}", None


def run_meta(seed: int) -> dict:
    import numpy as np

    config, blas_threads = _openblas()
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "qfeedback", "*.py"))):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "git_head": _git_head(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "nproc": len(os.sched_getaffinity(0)),
        # the CLI's default --threads 0 sizes its pool to os.cpu_count()
        "pool_threads": os.cpu_count(),
        "blas_threads": blas_threads,
        "seed": seed,
        "src_lines": src_lines,
    }


def end_to_end(runner: Runner, gen, seconds: float, size: dict, setup: list[float]):
    """Whole rounds until --seconds of invocation time and min_invocations are reached.

    Between rounds, outside the timed region, fresh processes time the import
    of `qfeedback.cli` at evenly spaced points of the run, so that `setup_s`
    sees the same machine load as the invocations.
    """
    walls, work, failed = [], 0, 0
    while sum(walls) < seconds or len(walls) < size["min_invocations"]:
        for inv in next(gen):
            wall, ok = runner.run(inv)
            walls.append(wall)
            failed += not ok
            work += inv.work if ok else 0
        due = seconds * (len(setup) - 1) / (SETUP_SAMPLES - 1)
        if len(setup) < SETUP_SAMPLES and sum(walls) >= due:
            setup.append(_import_in_fresh_process())
    while len(setup) < SETUP_SAMPLES:
        setup.append(_import_in_fresh_process())
    attempted, timed = len(walls), sum(walls)
    tail_s, pct, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "work_per_s": (work / timed, "work/s", attempted),
        "cmd_p50_ms": (statistics.median(walls) * 1e3, "ms", attempted),
        "cmd_tail_ms": (tail_s * 1e3, "ms", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "success_frac": ((attempted - failed) / attempted, "frac", attempted),
    }
    extra = {"attempted": attempted, "failed": failed, "work": work, "timed_s": timed,
             "tail_percentile": pct, "tail_beyond": beyond,
             "walls_ms": [round(w * 1e3, 4) for w in walls]}
    return metrics, extra


def traced(runner: Runner, gen, workload: str, seconds: float, scale: str, spans_path: str):
    n_rounds = 1 if scale == "tiny" else max(1, round(seconds / (2 * NOMINAL_ROUND_S[workload])))
    schedule = [inv for _ in range(n_rounds) for inv in next(gen)]
    results = [runner.run(inv) for inv in schedule]
    tracer = tracing.Tracer()
    tracer.install()
    for i, inv in enumerate(schedule):
        tracer.invocation = i
        results.append(runner.run(inv, tracer))
    tracer.write_spans(spans_path)
    untraced_s = sum(w for w, _ in results[:len(schedule)])
    traced_s = sum(w for w, _ in results[len(schedule):])
    metrics = {name: (value, unit, 1) for name, (value, unit) in tracer.layer_metrics().items()}
    metrics |= {
        "trace.invocations": (len(schedule), "count", 1),
        "trace.untraced_s": (untraced_s, "s", len(schedule)),
        "trace.traced_s": (traced_s, "s", len(schedule)),
        "trace.overhead_s": (traced_s - untraced_s, "s", len(schedule)),
    }
    failed = sum(not ok for _, ok in results)
    return metrics, {"attempted": len(results), "failed": failed, "rounds": n_rounds,
                     "spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="input size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qfeedback", "cli.py")):
        print(f"no {SRC}/qfeedback here: run from the repository root", file=sys.stderr)
        return 2

    setup = [import_in_process()]
    import qfeedback
    import qfeedback.cli

    if not os.path.abspath(qfeedback.__file__).startswith(os.path.abspath(SRC) + os.sep):
        print(f"imported qfeedback from {qfeedback.__file__}, not {SRC}/", file=sys.stderr)
        return 2
    # imported only after the timed import, because it imports qfeedback itself
    import checks

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        runner = Runner(qfeedback.cli.main, checks, tmp)
        for inv in next(rounds(args.workload, args.seed, "tiny")):
            invoke(runner.main, inv, tmp)  # warm-up, untimed and unchecked
        gen = rounds(args.workload, args.seed, args.scale)
        if args.trace:
            metrics, extra = traced(runner, gen, args.workload, args.seconds, args.scale,
                                    os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
        else:
            metrics, extra = end_to_end(runner, gen, args.seconds, SCALES[args.scale], setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workload = WORKLOADS[args.workload]
    record = {"workload": args.workload, "work_unit": workload.work_unit, "why": workload.why,
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
              "meta": run_meta(args.seed), "setup_samples_s": setup,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "failures": runner.failures[:20]} | extra
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {extra['attempted']} invocations, "
          f"{extra['failed']} failed; work unit {workload.work_unit}")
    if not args.trace:
        print(f"cmd_tail_ms is p{extra['tail_percentile']:g} "
              f"({extra['tail_beyond']} of {extra['attempted']} invocations beyond it)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit:<6} n={n}")
    result = {"correct": extra["failed"] == 0, "attempted": extra["attempted"],
              "failed": extra["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
