#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 bench/spread.py --workloads modular-certified --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --save .bench_results/spread-a.json
    python3 bench/spread.py --seeds 1-10 --save b.json --against .bench_results/spread-a.json

For every workload and metric it prints the median of the per-run values
and their quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the bound in BENCHMARK.json:
a spread under a third of the bound is steady. With ``--against`` it also
prints how far each median moved from an earlier saved set, in the
metric's worse direction, as a share of the earlier median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save", default=None, help="write the per-run values here")
    parser.add_argument("--against", default=None, help="earlier --save file to compare medians with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, result {result}", file=sys.stderr)
                sys.exit(1)
            runs[name].append({k: m["value"] for k, m in result["metrics"].items()})
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[name][-1].items()),
                  flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    steady = True
    for name, values in runs.items():
        for metric, spec in metrics.items():
            xs = [v[metric] for v in values]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ok = spread < spec["bound"] / 3 or metric == "setup_s"
            steady &= ok
            line = (f"{name:18s} {metric:18s} median={med:.5g} spread={spread:.3f} "
                    f"bound={spec['bound']} {'ok' if ok else 'WIDE'}")
            if name in earlier:
                before = statistics.median(v[metric] for v in earlier[name])
                worse = (med - before) / before * (1 if spec["better"] == "lower" else -1)
                line += f" worse_by={worse:+.3f} {'ok' if worse <= spec['bound'] else 'REGRESSED'}"
            print(line)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
