#!/usr/bin/env python3
"""Run a workload over several seeds and summarise each end-to-end metric.

    python3 bench/spread.py run --workload map-score --seeds 1-10 --out a.jsonl
    python3 bench/spread.py summary a.jsonl [b.jsonl]

`run` appends one JSON line per seed (workload, seed, result). `summary`
prints, per workload and metric, the median, the quartiles from
statistics.quantiles(n=4), and their distance as a share of the median,
against the metric's bound in BENCHMARK.json; given a second file it also
prints how far the second median moved in the worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for seed in seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "elapsed_s": time.perf_counter() - started,
                                "result": result}) + "\n")
        print(args.workload, seed, f"{time.perf_counter() - started:.1f}s",
              result["correct"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)


def load(path: str) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        doc = json.loads(line)
        out.setdefault(doc["workload"], []).append(doc)
    return out


def summary(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = [load(p) for p in args.files]
    sets = [{w: [d["result"] for d in ds] for w, ds in s.items()} for s in docs]
    for workload, results in sets[0].items():
        shares = {r["failed"] / r["attempted"] for s in sets
                  for r in s.get(workload, [])}
        correct = all(r["correct"] for s in sets for r in s.get(workload, []))
        elapsed = [d["elapsed_s"] for d in docs[0][workload] if "elapsed_s" in d]
        print(f"{workload}: {len(results)} runs, correct {correct}, "
              f"failed shares {sorted(shares)}, "
              f"median run {statistics.median(elapsed or [0]):.1f} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"  {m['name']:<12} median {med:10.4f}  q1 {q1:10.4f}  "
                    f"q3 {q3:10.4f}  spread {spread:6.3f} / bound {m['bound']}")
            if len(sets) > 1 and workload in sets[1]:
                other = statistics.median(r["metrics"][m["name"]]["value"]
                                          for r in sets[1][workload])
                worse = (other - med) / med * (1 if m["better"] == "lower" else -1)
                line += f"  second median {other:10.4f} worse by {worse:+.3f}"
            print(line)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = p.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
