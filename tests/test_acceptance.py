"""Release gate: the eleven headline checks, each with pinned tolerances.

Every test prints one verdict line (run with `pytest -s` to see them all
at once) and fails loudly if its bound is missed. The desk-scale fixture
from conftest backs the end-to-end checks; the rest build their own
small problems with independent oracles.
"""

import time

import numpy as np
import pytest

import drycss.cli as cli
import helpers
from drycss.blup import fit_blup
from drycss.grid import GridSpec
from drycss.neural import build_autoencoder, build_classifier
from drycss.opportunity import (AnalogMatch, CandidateSite, default_rules,
                                extract_candidates, filter_candidates,
                                join_attributes, uplift_report)
from drycss.pipeline import (aggregate_metrics, category_means,
                             ensemble_scores, map_agreement_iou, pearson_r)
from drycss.spectral import (bin_energies, dft_coefficients, n_bins,
                             select_frequencies)
from helpers import (gradient_check, load_table_s4, load_table_s5,
                     out_of_fold_scores)


def verdict(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  {name}{tail}",
          flush=True)
    assert ok, f"acceptance {num:02d} {name}{tail}"


def test_01_dft_matches_naive_transform():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_dft = 0.0
    worst_parseval = 0.0
    for T in rng.integers(2, 65, size=200):
        x = rng.normal(size=int(T))
        coeffs = dft_coefficients(x)
        naive = helpers.naive_dft(x)
        scale = max(np.abs(naive).max(), 1e-30)
        worst_dft = max(worst_dft, np.abs(coeffs - naive).max() / scale)
        power = float(np.mean(x ** 2))
        total = float(bin_energies(coeffs, int(T)).sum())
        worst_parseval = max(worst_parseval, abs(total - power) / power)
    seconds = time.perf_counter() - t0
    ok = worst_dft <= 1e-9 and worst_parseval <= 1e-9 and seconds < 5.0
    verdict(1, "dft matches the quadratic-time transform", ok,
            f"coeff rel {worst_dft:.2e}, power rel {worst_parseval:.2e}, "
            f"{seconds:.2f}s")


def test_02_selection_is_optimal_truncation():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for T in range(2, 33):
        x = rng.normal(size=T)
        coeffs = dft_coefficients(x)
        for k in range(1, min(4, n_bins(T)) + 1):
            sel = select_frequencies(bin_energies(coeffs, T)[None, None, :], ("v",), k, T)
            got = frozenset(int(b) for b in sel.bins[0])
            best, _ = helpers.brute_force_best_bins(x, k)
            checked += 1
            if got != best:
                mismatches += 1
    seconds = time.perf_counter() - t0
    ok = mismatches == 0 and seconds < 30.0
    verdict(2, "retained bins equal the brute-force best subset", ok,
            f"{checked} cases, {mismatches} mismatches, {seconds:.2f}s")


def test_03_ridge_routes_agree():
    t0 = time.perf_counter()
    worst = 0.0
    monotone = True
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(20, 50))
        y = rng.normal(size=20)
        dual = fit_blup(X, y, route="dual")
        primal = fit_blup(X, y, route="primal")
        scale = max(float(np.linalg.norm(primal.effects)), 1e-30)
        worst = max(worst, float(np.linalg.norm(dual.effects
                                                - primal.effects)) / scale)
        norms = [float(np.linalg.norm(fit_blup(X, y, lam=lam).effects))
                 for lam in (1.0, 10.0, 100.0, 1000.0, 10000.0)]
        monotone = monotone and all(a > b for a, b in zip(norms, norms[1:]))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-8 and monotone and seconds < 10.0
    verdict(3, "dual and primal ridge solves agree, shrinkage monotone", ok,
            f"worst rel {worst:.2e}, {seconds:.2f}s")


@pytest.mark.slow
def test_04_gradients_check_out_for_every_architecture():
    n_features = 23 * 4 * 2  # default map-model feature width
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, n_features))
    worst = 0.0
    excluded = 0
    checked = 0
    for latent in (4, 8, 16, 32, 64):
        ae, _ = build_autoencoder(n_features, latent, rng)
        res = gradient_check(ae, X, X, loss="mse")
        worst = max(worst, res.max_rel_error)
        excluded += res.n_excluded
        checked += res.n_checked

        clf = build_classifier(latent, rng)
        Z = rng.normal(size=(6, latent))
        y = rng.uniform(size=(6, 1))
        res = gradient_check(clf, Z, y, loss="rmse")
        worst = max(worst, res.max_rel_error)
        excluded += res.n_excluded
        checked += res.n_checked
    ok = worst < 1e-4 and checked > 0 and excluded < 0.05 * checked
    verdict(4, "finite differences confirm every default architecture", ok,
            f"{checked} params, worst rel {worst:.2e}, {excluded} excluded")


def test_05_desk_run_recovers_planted_suitability(desk_run):
    labels = desk_run.labels
    oof = out_of_fold_scores(desk_run.runs, len(labels))
    seen = np.isfinite(oof)
    val_r = pearson_r(oof[seen], labels[seen])

    combined = desk_run.maps["combined"]
    valid = np.isfinite(combined) & np.isfinite(desk_run.suitability)
    map_r = pearson_r(combined[valid], desk_run.suitability[valid])

    rows = {(r["kind"], r["size"]): r for r in aggregate_metrics(desk_run.runs)}
    flat = abs(rows[("blup", 32)]["val_rmse_mean"]
               - rows[("blup", 64)]["val_rmse_mean"])

    ok = (val_r >= 0.8 and map_r >= 0.8 and flat < 0.05
          and desk_run.seconds < 300.0)
    verdict(5, "desk-scale ensembles recover the planted field", ok,
            f"val r {val_r:.3f}, map r {map_r:.3f}, blup 32->64 "
            f"{flat:.3f}, {desk_run.seconds:.0f}s")


def test_06_reference_categories_separate(desk_run):
    scores = ensemble_scores([m for m in desk_run.models if m is not None],
                             desk_run.series)["combined"]
    means = category_means(desk_run.samples, scores)
    hi, lo = means["HiSuit-HiVeg"], means["LoSuit-LoVeg"]
    ok = (hi - lo >= 0.3
          and lo < means["LoSuit-HiVeg"] < hi
          and lo < means["HiSuit-LoVeg"] < hi)
    verdict(6, "category means split and bracket the off-diagonal sites", ok,
            ", ".join(f"{k} {v:.3f}" for k, v in sorted(means.items())))


def test_07_map_agreement_scores(desk_run):
    a = np.array([[1.0, 0.8], [0.2, 0.1]])
    b = np.array([[0.9, 0.3], [0.7, 0.2]])
    third = map_agreement_iou(a, b)
    full = map_agreement_iou(a, a)
    desk = map_agreement_iou(desk_run.maps["blup"], desk_run.maps["nn"])
    ok = third == 1.0 / 3.0 and full == 1.0 and 0.0 <= desk <= 1.0
    verdict(7, "suitable-half overlap: constructed cases exact", ok,
            f"2x2 case {third:.6f}, identical {full:.1f}, "
            f"desk blup-vs-nn {desk:.3f}")


def test_08_packaged_attribute_filter():
    sites = [CandidateSite(rank=i, lat=0.0, lon=0.0, iy=0, ix=0,
                           opportunity=1.0) for i in range(1, 26)]
    join_attributes(sites, load_table_s4(), key="site")
    retained = {s.rank for s in filter_candidates(sites, default_rules())}
    expected = {3, 4, 5, 7, 9, 14, 15, 16, 18, 19, 21, 22, 24}
    ok = retained == expected
    verdict(8, "packaged attribute table filters to the published set", ok,
            f"retained {sorted(retained)}")


def test_09_packaged_uplift_ratios():
    results = [
        AnalogMatch(candidate_rank=r["site"], lat=r["intact_lat"],
                    lon=r["intact_lon"], iy=0, ix=0,
                    climate_distance=r["climate_distance"],
                    spatial_km=r["spatial_km"],
                    candidate_ndvi=r["predicted_ndvi"],
                    analog_ndvi=r["intact_ndvi"])
        for r in load_table_s5()
    ]
    rep = uplift_report(results)
    ok = (abs(rep.ratio_of_means - 2.47) <= 0.02
          and abs(rep.mean_of_ratios - 2.67) <= 0.02
          and rep.n_used == len(results))
    verdict(9, "packaged analog pairs reproduce both uplift ratios", ok,
            f"ratio of means {rep.ratio_of_means:.3f}, "
            f"mean of ratios {rep.mean_of_ratios:.3f}")


def test_10_candidate_spacing_holds_everywhere():
    spec = GridSpec(lat_min=20.0, lat_max=21.5, lon_min=40.0, lon_max=41.5,
                    n_lat=16, n_lon=16)
    spacing = 25.0
    violations = 0
    tightest = np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        opp = rng.normal(size=(16, 16))
        sites = extract_candidates(opp, spec, count=8,
                                   min_spacing_km=spacing)
        assert len(sites) >= 2
        min_km = helpers.pairwise_min_km(
            np.array([s.lat for s in sites]),
            np.array([s.lon for s in sites]))
        tightest = min(tightest, min_km)
        if min_km < spacing - 1e-9:
            violations += 1
    ok = violations == 0
    verdict(10, "candidate spacing respected on 100 random grids", ok,
            f"tightest pair {tightest:.2f} km vs minimum {spacing} km")


def test_11_pipeline_reruns_byte_identical(tmp_path_factory):
    def run_chain(ws, jobs):
        flags = ["--grid-size", "12", "--steps", "64", "--counts", "8,8,3,3",
                 "--seed", "3"]
        stages = [
            ["synth", "--out", str(ws)] + flags,
            ["features", "--out", str(ws)],
            ["train", "--out", str(ws), "--blup-sizes", "2", "--nn-sizes",
             "4", "--repetitions", "1", "--epochs", "5",
             "--jobs", str(jobs)],
            ["predict", "--out", str(ws), "--jobs", str(jobs)],
            ["calibrate", "--out", str(ws)],
            ["opportunity", "--out", str(ws)],
            ["candidates", "--out", str(ws), "--count", "5"],
            ["analogs", "--out", str(ws)],
            ["report", "--out", str(ws)],
        ]
        for argv in stages:
            assert cli.main(argv) == 0, f"stage {argv[0]} failed"

    ws_a = tmp_path_factory.mktemp("determinism_a")
    ws_b = tmp_path_factory.mktemp("determinism_b")
    run_chain(ws_a, jobs=1)
    run_chain(ws_b, jobs=2)

    files_a = {p.relative_to(ws_a) for p in ws_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(ws_b) for p in ws_b.rglob("*") if p.is_file()}
    same_tree = files_a == files_b
    differing = []
    for rel in sorted(files_a & files_b):
        if rel.name == "manifest.json":
            continue  # the one artifact holding timestamps
        if (ws_a / rel).read_bytes() != (ws_b / rel).read_bytes():
            differing.append(str(rel))
    ok = same_tree and not differing
    verdict(11, "reruns are byte-identical regardless of worker count", ok,
            f"{len(files_a)} files, differing: {differing or 'none'}")
