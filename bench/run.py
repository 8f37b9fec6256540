#!/usr/bin/env python3
"""Benchmark of the drycss chain: three workloads through the CLI stages.

    python3 bench/run.py --workload desk-chain --seed 1 --seconds 10 --trace 0

Run from anywhere; it imports drycss from the `src/` directory beside
`bench/` and works under `.bench_work/` there. Set-up stages run in a
forked child (so set-up memory does not count toward the measured peak),
then the measured stages run in this process, in whole rounds, until
--seconds have passed. The outputs are checked against independent
computations (bench/checks.py) and the last line of standard output is
one JSON object: correct, attempted, failed and metrics. With --trace 1
the metrics are per-layer figures from spans around calls into drycss
(bench/spans.py), and the spans go to .bench_work/traces/.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread and no inherited worker count, fixed before
# numpy is imported; every stage that takes --jobs also gets it explicitly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DRYCSS_JOBS", None)

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DESK_WORLD = ["--grid-size", "32", "--steps", "2920", "--counts", "101,101,14,14"]
# 50x50 nodes (2.4x the desk's pixels), two years of 3-hourly steps: the
# cube is 50*50*5840*23*4 B = 1.34 GB, 4.3x a 300 MiB last-level cache
MAP_WORLD = ["--grid-size", "50", "--steps", "5840", "--counts", "101,101,14,14"]
BLUP_LADDER = "2,4,8,16,32,64"
MAP_CANDIDATES = 40


@dataclass(frozen=True)
class Workload:
    setups: int       # set-ups per run; setup_s is their median
    setup: list       # [(stage, argv tail)], run before timing
    measured: list    # [(stage, argv tail)], one round
    candidates: int | None  # count asked of `candidates`, None if not run


def workloads(seed: str, table_s4: str) -> dict[str, Workload]:
    train = ["--seed", seed, "--jobs", "1"]
    chain = [("predict", ["--jobs", "1"]), ("calibrate", []), ("opportunity", [])]
    return {
        "desk-chain": Workload(
            setups=2,
            setup=[("synth", ["--seed", seed] + DESK_WORLD)],
            measured=[("features", []),
                      ("train", ["--blup-sizes", BLUP_LADDER, "--nn-sizes", "4,8",
                                 "--repetitions", "3", "--epochs", "10"] + train)]
            + chain + [("candidates", ["--attributes", table_s4]),
                       ("analogs", []), ("report", [])],
            candidates=25),
        "nn-train": Workload(
            setups=2,
            setup=[("synth", ["--seed", seed] + DESK_WORLD), ("features", [])],
            measured=[("train", ["--blup-sizes", "8", "--nn-sizes", "4,8,16,32,64",
                                 "--repetitions", "2", "--epochs", "150"] + train)]
            + chain[:2],
            candidates=None),
        "map-score": Workload(
            setups=1,
            setup=[("synth", ["--seed", seed] + MAP_WORLD), ("features", []),
                   ("train", ["--blup-sizes", BLUP_LADDER, "--nn-sizes", "4,8",
                              "--repetitions", "1", "--epochs", "10"] + train)],
            measured=chain + [("candidates", ["--count", str(MAP_CANDIDATES)]),
                              ("analogs", []), ("report", [])],
            candidates=MAP_CANDIDATES),
    }


WORKLOAD_NAMES = ("desk-chain", "nn-train", "map-score")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def warm_up() -> None:
    """First BLAS, LAPACK and FFT calls, so no lazy set-up is timed."""
    import numpy as np
    from scipy.linalg import cho_factor

    a = np.random.default_rng(0).normal(size=(64, 64))
    cho_factor(a @ a.T + 64 * np.eye(64))
    np.fft.rfft(a, axis=-1)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def call_stage(cli, tracer, ws: Path, stage: str, tail: list) -> int:
    """One CLI stage call; stage output goes to stderr so the result
    line stays last on stdout. Any escaping exception is a failed call."""
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(sys.stderr):
            return cli.main([stage, "--out", str(ws)] + tail)
    except Exception:
        traceback.print_exc()
        return -1


def set_up(cli, tracer, ws: Path, stages: list, trace_file: Path) -> float:
    """Run the set-up stages in a forked child; wall seconds to its exit."""
    os.sync()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if tracer:
                tracer.clear()
            code = 0 if all(call_stage(cli, tracer, ws, s, t) == 0
                            for s, t in stages) else 1
            if tracer:
                tracer.dump(trace_file)
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    seconds = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("set-up stages failed")
    if tracer:
        tracer.merge(trace_file)
        trace_file.unlink()
    return seconds


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def output_digest(ws: Path, keep: set[str]) -> str:
    """Hash of every file the measured stages wrote, except the manifest."""
    h = hashlib.sha256()
    for p in sorted(ws.rglob("*")):
        rel = p.relative_to(ws)
        if p.is_file() and rel.parts[0] not in keep and rel.name != "manifest.json":
            h.update(str(rel).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def failed_runs(ws: Path) -> tuple[int, int]:
    """(training runs, diverged runs) recorded under runs/."""
    records = [json.loads(p.read_text())
               for p in (ws / "runs").glob("*/predictions.json")]
    return len(records), sum(1 for r in records if r["failed"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drycss" / "__init__.py").is_file():
        print(f"bench: no drycss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from importlib import resources

    import checks
    from drycss import cli
    from spans import Tracer, instrument, layer_metrics, write_trace

    warm_up()
    table_s4 = str(resources.files("drycss.data").joinpath("table_s4.csv"))
    work = workloads(str(args.seed), table_s4)[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    ws = base / "ws"

    setup_s = []
    for _ in range(work.setups):
        shutil.rmtree(ws, ignore_errors=True)
        setup_s.append(set_up(cli, tracer, ws, work.setup, base / "setup-trace.json"))
    keep = {p.name for p in ws.iterdir()}
    manifest = (ws / "manifest.json").read_text()
    setup_bytes = tree_bytes(ws)

    if tracer:
        tracer.phase = "measured"
    wall, cpu, written, digests = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        for p in ws.iterdir():
            if p.name not in keep:
                shutil.rmtree(p) if p.is_dir() else p.unlink()
        (ws / "manifest.json").write_text(manifest)
        os.sync()  # no dirty pages from earlier writes left to write back
        c0, t0 = cpu_seconds(), time.perf_counter()
        codes = [call_stage(cli, tracer, ws, s, t) for s, t in work.measured]
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds() - c0)
        attempted += len(codes)
        failed += sum(1 for c in codes if c != 0)
        if any(s == "train" for s, _ in work.measured):
            runs, diverged = failed_runs(ws)
            attempted += runs
            failed += diverged
        print(f"bench: round {len(wall)} wall {wall[-1]:.3f} s cpu {cpu[-1]:.3f} s",
              file=sys.stderr)
        written.append(tree_bytes(ws) - setup_bytes)
        digests.append(output_digest(ws, keep))
        if time.perf_counter() - started >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        quality, failures = checks.check_workspace(ws, args.seed, work.candidates)
    except Exception:  # an output the checks need is missing or malformed
        traceback.print_exc()
        quality = {"css_map_r": 0.0, "oof_val_r": 0.0}
        failures = ["the checks could not read the workspace"]
    if len(set(digests)) != 1:
        failures.append("measured rounds wrote different outputs")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer:
        metrics = layer_metrics(tracer, work.setups, len(wall))
        write_trace(tracer, WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": len(wall), "setups": work.setups,
                     "wall_s": statistics.median(wall),
                     "setup_s": statistics.median(setup_s)}, metrics)
    else:
        metrics = {"wall_s": statistics.median(wall), "cpu_s": statistics.median(cpu),
                   "setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb,
                   "artifact_mb": statistics.median(written) / 1e6, **quality}
    shutil.rmtree(ws, ignore_errors=True)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_r"):
        return "r"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "mb" in name:
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
