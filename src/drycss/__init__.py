"""Climate suitability scoring for dryland restoration planning.

Pipeline: gridded climate cubes -> spectral features -> ridge (BLUP)
and autoencoder/classifier ensembles -> climate suitability maps ->
opportunity maps against observed NDVI -> spaced candidate sites ->
rule filtering -> climate-analog uplift estimates.
"""

from .errors import DataError, NumericalError
from .grid import (ClimateCube, GridSpec, NdviObservation, NdviRaster,
                   TimeAxis, VARIABLES, block_regrid, great_circle_km,
                   load_cube, load_grids, load_ndvi, regrid_ndvi, save_cube,
                   save_grids, save_ndvi, summer_ndvi_mean)
from .spectral import (FrequencySelection, NormalizationTable, bin_energies,
                       dft_coefficients, fit_normalization, project,
                       select_frequencies, truncated_coefficients)
from .blup import BlupModel, fit_blup, predict_blup, select_lambda_loo
from .neural import (AutoencoderModel, ClassifierModel, DenseNet, TrainParams,
                     train_autoencoder, train_classifier)
from .bundles import TrainedModel, load_model_bundle, save_model_bundle
from .pipeline import (Calibration, GridSettings, LabeledSample, TrainingRun,
                       aggregate_metrics, category_means, ensemble_scores,
                       fit_calibration, holdout_split, map_agreement_iou,
                       pearson_r, predict_map, ranking_overlap, rmse,
                       run_training_grid, sample_series)
from .opportunity import (AnalogMatch, CandidateSite, NoAnalog, Rule,
                          UpliftReport, default_rules, extract_candidates,
                          filter_candidates, find_analog, join_attributes,
                          load_rules, opportunity_map, parse_coordinate,
                          uplift_report)

__version__ = "0.1.0"
