"""Spans and counts recorded around calls into drycss's public functions.

A Tracer replaces a name with a timing wrapper where its caller looks it
up: `pipeline` and `cli` import `dft_coefficients` by name, so both of
those module attributes are wrapped, not `spectral.dft_coefficients`.
Spans are kept in memory (name, phase, start, end, parent) and written
out when the run ends. A span's self time is its duration minus the
durations of the spans it directly encloses; calls are nested, never
concurrent, because every stage runs with one worker.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [name, phase, start, end, parent index]
        self.counts: dict[str, float] = {}  # "phase:name" -> running total
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.phase, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def clear(self) -> None:
        self.spans, self.counts = [], {}

    def add(self, name: str, value: float) -> None:
        key = f"{self.phase}:{name}"
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Time every call of owner.attr as span `name`; counter(out,
        args, kwargs) returns {count name: value} added per call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(out, args, kwargs).items():
                    self.add(key, value)
            return out

        setattr(owner, attr, traced)

    # -- moving spans between the forked set-up child and the parent

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def merge(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        offset = len(self.spans)
        for name, phase, start, end, parent in doc["spans"]:
            self.spans.append([name, phase, start, end,
                               parent + offset if parent >= 0 else -1])
        for key, value in doc["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    # -- summaries

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def stage_of(self, i: int) -> str:
        """Name of the outermost span enclosing span i (its CLI stage)."""
        while self.spans[i][4] >= 0:
            i = self.spans[i][4]
        return self.spans[i][0]

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, (name, ph, start, end, _) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own[i]
        return out


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each stage calls, by module layer."""
    from drycss import bundles, cli, neural, pipeline, synth

    def series(out, args, kwargs):
        return {"spectral.dft_series": out.size // out.shape[-1]}

    def rows(out, args, kwargs):
        return {"spectral.project_rows": out.size // out.shape[-1]}

    def steps(out, args, kwargs):
        n = args[0].shape[0]
        params = kwargs["params"] if "params" in kwargs else args[-2]
        return {"neural.optimizer_steps":
                params.epochs * math.ceil(n / min(params.batch_size, n))}

    def cube_mb(out, args, kwargs):
        n = out.time.n_steps * out.spec.n_lat * out.spec.n_lon
        return {"grid.cube_mb": n * len(out.variables) * 4 / 1e6}

    def bundle_mb(out, args, kwargs):
        path = Path(args[1] if len(args) > 1 else kwargs["path"])
        return {"bundles.mb_written":
                sum(p.stat().st_size for p in path.iterdir()) / 1e6}

    def pixel_models(out, args, kwargs):
        models = [m for m in args[0] if m is not None]
        return {"pipeline.pixel_model_scores": int(args[1].mask.sum()) * len(models)}

    w = tracer.wrap
    w(synth, "synth_cube", "synth.cube")
    w(synth, "synth_ndvi", "synth.ndvi")
    w(synth, "sample_reference_sites", "synth.sites")
    w(cli, "save_cube", "grid.save_cube")
    w(cli, "load_cube", "grid.load_cube", cube_mb)
    w(cli, "regrid_ndvi", "grid.regrid_ndvi")
    w(cli, "save_grids", "grid.grids_io")
    w(cli, "load_grids", "grid.grids_io")
    for owner in (cli, pipeline):
        w(owner, "dft_coefficients", "spectral.dft", series)
    w(pipeline, "select_frequencies", "spectral.select")
    w(pipeline, "fit_normalization", "spectral.normalize")
    for owner in (pipeline, bundles):
        w(owner, "project", "spectral.project", rows)
    w(cli, "truncated_coefficients", "spectral.truncate")
    w(pipeline, "fit_blup", "blup.fit")
    w(bundles, "predict_blup", "blup.predict")
    w(pipeline, "train_autoencoder", "neural.autoencoder_train", steps)
    w(pipeline, "train_classifier", "neural.classifier_train", steps)
    w(neural.AutoencoderModel, "encode", "neural.infer")
    w(neural.ClassifierModel, "predict", "neural.infer")
    w(cli, "save_model_bundle", "bundles.save", bundle_mb)
    w(cli, "load_model_bundle", "bundles.load")
    w(pipeline, "train_one_run", "pipeline.train_run")
    w(cli, "predict_map", "pipeline.predict_map", pixel_models)
    w(cli, "ensemble_scores", "pipeline.ensemble_scores")
    w(cli, "extract_candidates", "opportunity.extract_candidates")
    w(cli, "find_analog", "opportunity.find_analog")


LAYERS = ("cli", "synth", "grid", "spectral", "blup", "neural", "bundles",
          "pipeline", "opportunity")


def layer_metrics(tracer: Tracer, setups: int, rounds: int) -> dict[str, float]:
    """Per-layer metrics: set-up work per set-up, the rest per measured round."""
    setup = tracer.totals("setup")
    measured = tracer.totals("measured")

    def per(table, name, key, n):
        return table.get(name, {}).get(key, 0.0) / n

    def s(name, key="s"):
        return per(measured, name, key, rounds)

    def calls(name):
        return per(measured, name, "calls", rounds)

    def count(name):
        return tracer.counts.get(f"measured:{name}", 0) / rounds

    m: dict[str, float] = {}
    for stage in ("features", "train", "predict", "calibrate", "opportunity",
                  "candidates", "analogs", "report"):
        m[f"cli.{stage}_s"] = s(f"cli.{stage}")
    m["cli.synth_s"] = per(setup, "cli.synth", "s", setups)
    for part in ("cube", "ndvi", "sites"):
        m[f"synth.{part}_s"] = per(setup, f"synth.{part}", "s", setups)
    m["grid.save_cube_s"] = per(setup, "grid.save_cube", "s", setups)
    m["grid.load_cube_s"] = s("grid.load_cube")
    m["grid.load_cube_calls"] = calls("grid.load_cube")
    loads = calls("grid.load_cube")
    m["grid.cube_mb"] = count("grid.cube_mb") / loads if loads else 0.0
    m["grid.regrid_ndvi_s"] = s("grid.regrid_ndvi")
    m["grid.grids_io_s"] = s("grid.grids_io")
    m["spectral.dft_s"] = s("spectral.dft")
    m["spectral.dft_series"] = count("spectral.dft_series")
    m["spectral.dft_analogs_s"] = sum(
        end - start for i, (name, ph, start, end, _) in enumerate(tracer.spans)
        if name == "spectral.dft" and ph == "measured"
        and tracer.stage_of(i) == "cli.analogs") / rounds
    m["spectral.select_s"] = s("spectral.select")
    m["spectral.select_calls"] = calls("spectral.select")
    m["spectral.project_s"] = s("spectral.project")
    m["spectral.project_rows"] = count("spectral.project_rows")
    m["blup.fit_s"] = s("blup.fit")
    m["blup.fits"] = calls("blup.fit")
    m["blup.predict_s"] = s("blup.predict")
    train_s = s("neural.autoencoder_train") + s("neural.classifier_train")
    m["neural.autoencoder_train_s"] = s("neural.autoencoder_train")
    m["neural.classifier_train_s"] = s("neural.classifier_train")
    m["neural.nets_trained"] = (calls("neural.autoencoder_train")
                                + calls("neural.classifier_train"))
    m["neural.optimizer_steps"] = count("neural.optimizer_steps")
    m["neural.steps_per_s"] = (m["neural.optimizer_steps"] / train_s
                               if train_s > 0 else 0.0)
    m["neural.infer_s"] = s("neural.infer")
    m["bundles.save_s"] = s("bundles.save")
    m["bundles.load_s"] = s("bundles.load")
    m["bundles.loads"] = calls("bundles.load")
    m["bundles.mb_written"] = count("bundles.mb_written")
    m["pipeline.train_run_self_s"] = s("pipeline.train_run", "self_s")
    m["pipeline.runs"] = calls("pipeline.train_run")
    m["pipeline.predict_map_self_s"] = s("pipeline.predict_map", "self_s")
    m["pipeline.pixel_model_scores"] = count("pipeline.pixel_model_scores")
    m["pipeline.ensemble_scores_s"] = s("pipeline.ensemble_scores")
    m["opportunity.extract_candidates_s"] = s("opportunity.extract_candidates")
    m["opportunity.find_analog_s"] = s("opportunity.find_analog")
    m["opportunity.find_analog_calls"] = calls("opportunity.find_analog")
    for layer in LAYERS:
        table, n = (setup, setups) if layer == "synth" else (measured, rounds)
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                   if name.split(".")[0] == layer) / n
    return m


def write_trace(tracer: Tracer, path: Path, header: dict, metrics: dict) -> None:
    """Spans, counts, per-stage breakdown and layer self times, as JSON."""
    by_stage: dict[str, dict[str, float]] = {}
    for i, (name, phase, start, end, _) in enumerate(tracer.spans):
        if phase == "measured" and tracer.spans[i][4] >= 0:
            row = by_stage.setdefault(tracer.stage_of(i), {})
            row[name] = row.get(name, 0.0) + end - start
    doc = dict(header)
    doc.update({
        "per_layer": metrics,
        "totals": {"setup": tracer.totals("setup"),
                   "measured": tracer.totals("measured")},
        "inside_stage_s": by_stage,
        "counts": tracer.counts,
        "spans": [{"name": n, "phase": p, "start": a, "end": b, "parent": q}
                  for n, p, a, b, q in tracer.spans],
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
