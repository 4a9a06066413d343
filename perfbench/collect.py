"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads exact-small,directed-mid \
        --seeds 1-10 --seconds 25 --trace 0 [--out summary.json]

Runs ``run.py`` once per (workload, seed), one at a time, from the current
directory. For every metric it reports the median over seeds and the spread,
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``. Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            if summary.get("machine") is None:
                machine = [ln for ln in lines if ln.startswith("machine ")]
                summary["machine"] = json.loads(machine[0][len("machine "):]) if machine else None
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({
                "seed": seed,
                **{k: result[k] for k in ("correct", "attempted", "failed")},
                "counts": [ln.strip()[len("counts "):] for ln in lines if ln.startswith("  counts ")],
            })
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        stats = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], None, vals[0])
            stats[name] = {
                "unit": units[name],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "values": vals,
            }
            spread = stats[name]["spread"]
            print(f"  {workload:<16} {name:<32} median {median:.6g} {units[name]:<6} spread {spread if spread is None else f'{spread:.4f}'}")
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
