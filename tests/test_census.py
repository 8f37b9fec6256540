"""Call census: every function and method defined in `src/drycss` is
entered by some stage of a tiny CLI chain, so code that only the tests
call lives in `tests/helpers.py`, not in the package.

The chain is test_11's (12x12, 64 steps, synth through report), run in
process, plus reruns with the flags that select the other paths:
`train --blup-lambda loo`, `predict --jobs 2`, `opportunity --years`,
`candidates` from a `--config` file and with `--attributes` joined by
site and by coordinates and filtered by a `--rules` file, and
`analogs --exclude` with an absolute `--max-climate-distance`.
`grid.series_products` reads the cube's variables in pool threads, so
those are traced too. Functions that only an error path or the import enters are
listed in ALLOWED with the reason.
"""

import ast
import csv
import json
import sys
import threading
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

import drycss.cli as cli
from drycss.grid import load_grids, save_grids

SRC = Path(__file__).resolve().parents[1] / "src" / "drycss"

# (module, qualified name): why no stage of the chain enters it
ALLOWED = {
    ("bundles", "TrainedModel.model_id"): "error path: names models fit on other data",
    ("bundles", "TrainedModel.score_coefficients"):
        "kept for the benchmark tracer, which wraps bundles.project; tests call it",
    ("cli", "_Parser.error"): "error path: a bad flag",
    ("cli", "_at_least"): "at import: builds the option checks of STAGES",
    ("errors", "NumericalError.__init__"): "error path: a numerical failure",
    ("pipeline", "ensemble_scores"):
        "kept for the benchmark tracer, which wraps cli.ensemble_scores; tests call it",
}


def defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line of its code object) -> (module, qualified name)
    of every def in the package, nested ones included."""
    found = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), first)] = (module, prefix + child.name)
                visit(child, path, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem, "")
    return found


def run_chain(ws: Path, tmp: Path) -> None:
    def run(*argv):
        assert cli.main(list(argv)) == 0, f"stage {argv[0]} failed"

    out = ["--out", str(ws)]
    run("synth", *out, "--grid-size", "12", "--steps", "64", "--counts", "8,8,3,3",
        "--seed", "3")
    run("features", *out)
    train = ["train", *out, "--blup-sizes", "2", "--nn-sizes", "4", "--repetitions", "1",
             "--epochs", "5"]
    run(*train)
    run(*train, "--blup-lambda", "loo", "--force")
    run("predict", *out, "--jobs", "2")
    run("calibrate", *out)
    run("opportunity", *out, "--years", "2020")
    config = tmp / "config.json"
    config.write_text(json.dumps({"candidates": {"count": 5}}))
    run("candidates", *out, "--config", str(config))
    with open(ws / "candidates.csv", newline="") as f:
        sites = list(csv.DictReader(f))
    attrs = tmp / "attrs.csv"
    with open(attrs, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lat", "lon", "status"])
        w.writerows([s["lat"], s["lon"], "keep"] for s in sites)
    rules = tmp / "rules.json"
    rules.write_text(json.dumps([{"field": "status", "op": "eq", "value": "keep"}]))
    run("candidates", *out, "--count", "5", "--attributes", str(attrs), "--join", "coords",
        "--rules", str(rules), "--force")
    table_s4 = resources.files("drycss.data") / "table_s4.csv"
    run("candidates", *out, "--count", "5", "--attributes", str(table_s4), "--force")
    run("analogs", *out)
    spec, _ = load_grids(ws / "maps" / "css")
    save_grids(tmp / "excl", spec, {"exclusion": np.zeros(spec.shape)})
    run("analogs", *out, "--exclude", str(tmp / "excl"), "--max-climate-distance", "1e9",
        "--force")
    run("report", *out)


def test_every_package_function_is_entered(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # table_s4 names sites the chain lacks
            run_chain(tmp_path / "ws", tmp_path)
    finally:
        threading.setprofile(None)
        sys.setprofile(None)

    defined = defined_functions()
    for code in entered:
        defined.pop((code.co_filename, code.co_firstlineno), None)
    never = set(defined.values())
    unexplained, stale = sorted(never - set(ALLOWED)), sorted(set(ALLOWED) - never)
    assert not unexplained, f"defined in src/drycss, entered by no stage: {unexplained}"
    assert not stale, f"in ALLOWED, but entered or no longer defined: {stale}"
