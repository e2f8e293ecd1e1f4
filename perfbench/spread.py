"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--tag NAME]

Each run is an untraced `perfbench/run.py` in a fresh process with
BENCHMARK.json's run length.  For every workload and metric it prints the
median, the quartiles, and the interquartile range as a share of the
median, the figure held against each end-to-end metric's bound, plus the
share of failed operations.  The raw results go to perfbench/out/spread-TAG.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list, bounds: dict) -> list:
    lines = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
        lines.append(f"  {name:40s} median {med:12.6g} {unit:6s} "
                     f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} {flag}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    lines.append(f"  runs {len(results)}  attempted {attempted}  failed {failed}"
                 f"  correct {correct}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--tag", default="latest")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in parse_seeds(args.seeds)]
        out[workload] = results
        print(workload)
        print("\n".join(summarize(results, bounds)), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.tag}.json").write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
