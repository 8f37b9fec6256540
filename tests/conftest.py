"""Shared fixtures: one desk-scale pipeline run and one tiny run.

Both are session-scoped because training the model grid is the
expensive part; tests treat the results as read-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from drycss import synth
from drycss.grid import GridSpec, TimeAxis, regrid_ndvi
from drycss.neural import TrainParams
from drycss.pipeline import (GridSettings, derive_seed, predict_map,
                             run_training_grid, sample_series)

# epochs for the desk run; quality saturates well before the package
# default and the end-to-end budget is tight
DESK_EPOCHS = 150


@dataclass
class PipelineRun:
    spec: GridSpec
    taxis: TimeAxis
    cube: object
    suitability: np.ndarray
    raster: object
    irrigated: np.ndarray
    degraded: np.ndarray
    summer: np.ndarray
    samples: list
    series: np.ndarray  # float32, as the features stage stores them
    labels: np.ndarray
    settings: GridSettings
    runs: list
    models: list
    maps: dict
    seconds: float  # wall time, synthesis through maps, single-threaded


def build_pipeline(n_side, n_steps, counts, epochs, blup_sizes, nn_sizes,
                   repetitions, seed) -> PipelineRun:
    t0 = time.perf_counter()
    spec = GridSpec(lat_min=20.0, lat_max=20.0 + 0.1 * (n_side - 1),
                    lon_min=40.0, lon_max=40.0 + 0.1 * (n_side - 1),
                    n_lat=n_side, n_lon=n_side)
    taxis = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=n_steps)
    cube, suit = synth.synth_cube(spec, taxis, seed=seed)
    raster, irrigated, degraded = synth.synth_ndvi(
        spec, suit, seed=derive_seed(seed, "synth", "ndvi"),
        n_irrigated=counts["LoSuit-HiVeg"] + 6,
        n_degraded=counts["HiSuit-LoVeg"] + 6)
    summer = regrid_ndvi(raster, spec, years=synth.DEFAULT_NDVI_YEARS)
    samples = synth.sample_reference_sites(
        spec, suit, summer, irrigated, degraded, counts=counts,
        seed=derive_seed(seed, "synth", "sites"))

    series = sample_series(cube, samples)
    labels = np.array([s.label for s in samples])

    settings = GridSettings(variables=cube.variables, n_steps=n_steps,
                            train_params=TrainParams(epochs=epochs))
    runs, models = run_training_grid(series, labels, settings,
                                     blup_sizes=blup_sizes, nn_sizes=nn_sizes,
                                     repetitions=repetitions,
                                     root_seed=seed, jobs=1)
    maps = predict_map(models, cube, jobs=1)
    seconds = time.perf_counter() - t0
    return PipelineRun(spec=spec, taxis=taxis, cube=cube, suitability=suit,
                       raster=raster, irrigated=irrigated, degraded=degraded,
                       summer=summer, samples=samples, series=series,
                       labels=labels, settings=settings, runs=runs,
                       models=models, maps=maps, seconds=seconds)


def pytest_collection_modifyitems(items):
    """Mark every test on the desk fixture, directly or through another
    fixture, as slow."""
    for item in items:
        if "desk_run" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def desk_run() -> PipelineRun:
    """32x32 one-year cube, full model grid, 230 reference sites."""
    return build_pipeline(
        n_side=32, n_steps=2920,
        counts={"HiSuit-HiVeg": 101, "LoSuit-LoVeg": 101,
                "LoSuit-HiVeg": 14, "HiSuit-LoVeg": 14},
        epochs=DESK_EPOCHS,
        blup_sizes=(2, 4, 8, 16, 32, 64), nn_sizes=(4, 8, 16, 32, 64),
        repetitions=10, seed=0)


@pytest.fixture(scope="session")
def tiny_run() -> PipelineRun:
    """12x12 cube with a short time axis; plumbing-scale only."""
    return build_pipeline(
        n_side=12, n_steps=64,
        counts={"HiSuit-HiVeg": 8, "LoSuit-LoVeg": 8,
                "LoSuit-HiVeg": 3, "HiSuit-LoVeg": 3},
        epochs=10, blup_sizes=(2, 4), nn_sizes=(4,), repetitions=2, seed=3)
