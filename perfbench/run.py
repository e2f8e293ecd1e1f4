"""fatou-lab benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run repeats whole rounds of the workload's
operations while another round still fits in S seconds (at least one),
checks every output against the references in ``oracles.py``, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds):
    wall_s       time spent in package calls per round
    cpu_s        user + system CPU time of those calls per round
    peak_rss_mb  peak resident memory of this process
    setup_s      median over fresh interpreters of importing fatou_lab and
                 building the workload's configs and inputs; the probes run
                 before and after the rounds
--trace 1 wraps each layer's public functions and reports per-layer self
time, call counts and computed work counts (see layers.py), writing the
spans to perfbench/out/.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up probes before and after the timed rounds: a probe is CPU-bound, and
# on a shared host CPU speed wanders over seconds, so the probes span the run
SETUP_PROBES = (5, 4)

# one worker, one BLAS thread: the load comes from this process alone
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("battery", "ladder", "domain", "plane"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build inputs; print the time taken")
    return ap.parse_args(argv)


def pin_environment():
    os.environ.update(PINNED_ENV)
    os.environ.pop("FATOU_LAB_THREADS", None)


def import_package():
    """Import fatou_lab from this checkout's src, never from elsewhere."""
    if not (SRC / "fatou_lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'fatou_lab'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fatou_lab

    if Path(fatou_lab.__file__).resolve().parent != SRC / "fatou_lab":
        raise SystemExit(f"benchmark: imported fatou_lab from {fatou_lab.__file__}")
    import workloads

    return workloads


def build(args):
    workloads = import_package()
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    return workloads.WORKLOADS[args.workload](args.seed, str(outdir))


def setup_probe(args) -> float:
    t0 = time.perf_counter()
    build(args)
    return time.perf_counter() - t0


def setup_times(args, count: int) -> list:
    """Set-up times of `count` fresh interpreters.

    This process has imported everything already, so the files the probes
    read are cached and the first probe costs the same as the others.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_round(ops):
    """Run every operation once; returns (wall, cpu, failed, wrong, per-op wall)."""
    wall = cpu = 0.0
    failed = wrong = 0
    per_op = {}
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        finally:
            dw = time.perf_counter() - w0
            dc = time.process_time() - c0
            wall += dw
            cpu += dc
            per_op[op.name] = per_op.get(op.name, 0.0) + dw
        try:
            problems = op.check(result)
        except Exception as exc:   # a malformed result fails its check
            problems = [f"check raised {exc!r}"]
        if problems:
            for p in problems:
                print(f"check failed [{op.name}]: {p}", file=sys.stderr)
            failed += 1
            wrong += 1
    return wall, cpu, failed, wrong, per_op


def end_to_end_metrics(rounds, setup_s) -> dict:
    return {
        "wall_s": (median(r[0] for r in rounds), "s"),
        "setup_s": (median(setup_s), "s"),
        "cpu_s": (median(r[1] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer_metrics(rounds) -> dict:
    """Every per-layer metric, so that any two traced runs share their keys:
    a layer the workload never calls reports 0 calls and 0 s, and so does an
    experiment it never runs."""
    from fatou_lab.config import EXPERIMENTS
    from layers import COUNTS

    metrics = {"trace.wall_s": (median(r[0] for r in rounds), "s")}
    for key in rounds[0][3]:
        unit = COUNTS[key][0] if key in COUNTS else (
            "s" if key.endswith("_s") else "count")
        metrics[key] = (median(r[3][key] for r in rounds), unit)
    for name in EXPERIMENTS:
        metrics[f"experiment.{name}.wall_s"] = (
            median(r[2].get(name, 0.0) for r in rounds), "s")
    return metrics


def report_rounds(args, ops, rounds):
    """Kernel backend, per-round and per-operation times, for reading noise
    and hot spots and for telling runs on different backends apart."""
    from fatou_lab import BACKEND

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"rounds-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"backend": BACKEND,
                              "rounds": [{"wall": r[0], "cpu": r[1], "ops": r[2]}
                                         for r in rounds]}))
    print(f"{args.workload}: kernel backend {BACKEND}; {len(rounds)} rounds of "
          f"{len(ops)} operations; round wall {[round(r[0], 4) for r in rounds]}",
          file=sys.stderr)
    for name in rounds[0][2]:
        print(f"  {name:28s} median wall {median(r[2][name] for r in rounds):.4f} s",
              file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2 ** 32          # random streams take nonnegative keys
    pin_environment()
    if args.setup_probe:
        print(setup_probe(args))
        return 0
    ops = build(args)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = [] if args.trace else setup_times(args, SETUP_PROBES[0])

    rounds = []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_round()
        wall, cpu, f, w, per_op = run_round(ops)
        layers = tracer.round_summary() if tracer is not None else {}
        rounds.append((wall, cpu, per_op, layers))
        attempted += len(ops)
        failed += f
        wrong += w
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    if tracer is None:
        setup_s += setup_times(args, SETUP_PROBES[1])
        metrics = end_to_end_metrics(rounds, setup_s)
    else:
        tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer_metrics(rounds)
    report_rounds(args, ops, rounds)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
