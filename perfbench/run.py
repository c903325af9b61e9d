"""frobw benchmark: times a workload, checks every answer, prints metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload profile-dense --seed 1 \
        --seconds 30 --trace 0

Workloads (see README.md in this directory): profile-dense,
threshold-sketch, cli-mixed.  The package is imported from src/ of the
checkout; without it the benchmark exits with code 2 and prints no result.

An untraced run first times SETUP_PROBES fresh interpreters that import
frobw and build the workload's inputs (setup_s).  A run then does one warm-up
op, then whole
passes over the workload's ops for about --seconds: another pass starts only
while the median pass still fits.  The time left goes to extra rounds of the
ops whose median time still fits, which add samples to the op medians of
short ops.  With --trace 1, passes alternate between untraced and traced (at
least one of each), there are no extra rounds, and the per-layer metrics
come from the traced passes; the spans are written to .perfbench/ in the
checkout.  The benchmark never sets thread variables such as
OPENBLAS_NUM_THREADS: that policy belongs to the program.

The last line of stdout is the result object (correct, attempted, failed,
metrics); the line before it is the run record: seed, environment, pass and
op times, and every failure.  A run with any failed op exits with code 1.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
WORKLOADS = ("profile-dense", "threshold-sketch", "cli-mixed")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import frobw, build the inputs and exit "
                         "(one setup_s probe)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def import_frobw():
    """Import frobw from src/ of this checkout, or exit with code 2."""
    if not (SRC / "frobw" / "__init__.py").is_file():
        print(f"error: no frobw sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import frobw
    if Path(frobw.__file__).resolve().parent != SRC / "frobw":
        print(f"error: imported frobw from {frobw.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str | None:
    """HEAD of the checkout's git repository, None outside one."""
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


def environment() -> dict:
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement

def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of SETUP_PROBES fresh interpreters that import frobw and
    build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()}")
    return times


def run_op(op, tracer=None, op_id=None):
    """(seconds, answer, problems) of one op; an exception is a problem."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            answer = op.run()
        else:
            with tracer.op(op_id):
                answer = op.run()
    except Exception as ex:  # one failed op must not end the run
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, [f"raised {type(ex).__name__}: {ex}"]
    dt = time.perf_counter() - t0
    return dt, answer, op.check(answer)


def run_round(ops, indices, tracer=None, label="") -> dict:
    """Run ops[i] for i in `indices`, in order; per-op results by index."""
    t0 = time.perf_counter()
    results = {i: run_op(ops[i], tracer, f"{label}:{i}") for i in indices}
    return {"wall_s": time.perf_counter() - t0,
            "op_s": {i: r[0] for i, r in results.items()},
            "answers": {i: r[1] for i, r in results.items()},
            "problems": {i: r[2] for i, r in results.items()}}


def run_loop(ops, seconds: float, tracer=None) -> list[dict]:
    """Rounds of ops for about `seconds`.

    Whole passes (kind "pass") run while the median pass still fits, and at
    least one runs.  With a tracer, passes alternate with traced passes
    (kind "traced", carrying their spans), at least one of each.  Without
    one, the time left after the last whole pass goes to "extra" rounds of
    the ops whose median time still fits: they add samples to the op
    medians of short ops and leave wall_s alone.
    """
    rounds: list[dict] = []
    t_end = time.perf_counter() + seconds
    every = range(len(ops))
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            r = run_round(ops, every, tracer if traced else None, len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        r["kind"] = "traced" if traced else "pass"
        r["spans"] = list(tracer.spans) if traced else None
        rounds.append(r)
        typical = statistics.median(p["wall_s"] for p in rounds)
        need_traced = tracer is not None and len(rounds) < 2
        if not need_traced and time.perf_counter() + typical > t_end:
            break
    if tracer is not None:
        return rounds
    op_median = [statistics.median(r["op_s"][i] for r in rounds)
                 for i in every]
    while True:
        budget = t_end - time.perf_counter()
        chosen = []
        for i in every:
            if op_median[i] <= budget:
                chosen.append(i)
                budget -= op_median[i]
        if not chosen:
            return rounds
        r = run_round(ops, chosen, label=len(rounds))
        r["kind"], r["spans"] = "extra", None
        rounds.append(r)


def tally(ops, rounds, warm_name, warm_problems):
    """(attempted, failed, messages): an op fails when it raises or when
    any of its answers disagrees with a reference."""
    failures = [f"warm-up {warm_name}: {msg}" for msg in warm_problems]
    for k, r in enumerate(rounds):
        for i, problems in r["problems"].items():
            failures += [f"round {k} {ops[i].name}: {msg}"
                         for msg in problems]
    failed = bool(warm_problems) + sum(bool(problems) for r in rounds
                                       for problems in r["problems"].values())
    return 1 + sum(len(r["op_s"]) for r in rounds), failed, failures


def op_samples(ops, rounds) -> list[list[float]]:
    """Untraced times of each op, over passes and extra rounds."""
    return [[r["op_s"][i] for r in rounds
             if r["kind"] != "traced" and i in r["op_s"]]
            for i in range(len(ops))]


def end_to_end(ops, rounds, setup_times) -> dict:
    op_medians = [statistics.median(t) for t in op_samples(ops, rounds)]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds
                                    if r["kind"] == "pass"),
        "op_geomean_s": math.exp(statistics.fmean(
            math.log(t) for t in op_medians)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds) -> dict:
    import tracer as tracing
    traced = [r for r in rounds if r["kind"] == "traced"]
    per_pass = [tracing.layer_metrics(r["spans"]) for r in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in per_pass[0]}
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in rounds
                            if r["kind"] == "pass")
        - 1.0)
    return out


def metric_units(kind: str) -> dict:
    """Metric -> unit for the "end_to_end" or "per_layer" list of
    BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_frobw()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        ops = workloads.build(args.workload, args.seed, checks.references(),
                              scratch)
        if args.setup_only:
            return 0
        return measure(args, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, ops) -> int:
    import tracer as tracing
    import workloads

    setup_times = [] if args.trace else measure_setup(args.workload,
                                                      args.seed)
    warm = next(op for op in ops
                if op.name == workloads.WARMUP_OP[args.workload])
    warm_problems = run_op(warm)[2]
    rounds = run_loop(ops, args.seconds,
                      tracing.Tracer() if args.trace else None)
    attempted, failed, failures = tally(ops, rounds, warm.name,
                                        warm_problems)

    if args.trace:
        values = per_layer(rounds)
        units = metric_units("per_layer")
        spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            [s.as_dict() for r in rounds if r["kind"] == "traced"
             for s in r["spans"]]))
    else:
        values = end_to_end(ops, rounds, setup_times)
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s_runs": setup_times,
        "rounds": [{"kind": r["kind"], "ops": len(r["op_s"]),
                    "wall_s": r["wall_s"]} for r in rounds],
        "op_median_s": {op.name: statistics.median(t) for op, t in
                        zip(ops, op_samples(ops, rounds))},
        "fail_frac": failed / attempted,
        "failures": failures,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
