"""cueflow: directed-information cue detection between interacting agents.

The package measures transfer entropy between two agents' time series with
conditional-Gaussian predictive models, turns the local TE signal into
discrete cue events through an adaptive threshold detector, and aggregates
events across trials into timing histograms, location grids, and group
statistics.
"""

from .aggregate import (CueGrid, CueHistogram, PeakTeReport, WelchResult,
                        peak_te_study, spatial_grid, temporal_histogram,
                        welch_ttest)
from .config import (AggregateConfig, DetectorSettings, EmbeddingConfig,
                     IoConfig, ModelConfig, PipelineConfig, SynthSettings,
                     load_config, parse_config_text)
from .detector import (CueEvent, DetectionTrace, DetectorConfig, des_threshold,
                       detect, detect_trace, highpass, time_constants)
from .embedding import EmbeddedDataset, EmbeddingSpec, embed
from .errors import (ConfigError, CueflowError, DataFormatError, PipelineError,
                     TrainingDivergedError)
from .models import (AUGMENTED, BASELINE, MLP_GAUSSIAN, VAR_LINEAR, FittedModel,
                     GaussianPredictions, TrainConfig, TrainReport, VARIANCE_FLOOR,
                     fit_mlp, fit_var, gradient_check, predict, predict_dataset)
from .pipeline import (Diagnostic, DirectionModels, PipelineResult, TrialResult,
                       build_reports, fit_models, run, validate_config)
from .synth import (CueScenario, Var1Spec, X_TO_Y, Y_TO_X, gen_cue_scenario,
                    gen_var1, stationary_cov, te_oracle_var1)
from .te import (DIRECTIONS, ENTROPY_DIFF, LOGLIK_RATIO, SRC2TGT, TGT2SRC,
                 TeSeries, gaussian_entropy, local_te, mean_te, peak_te)
from .timeseries import (TimeSeries, Trial, TrialSet, load_csv, resample,
                         trim_start, write_trial_csv)

__version__ = "0.1.0"
