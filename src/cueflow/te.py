"""Local transfer entropy from predictive Gaussian pairs.

Transfer entropy here is the entropy a source's history removes from the
target's next sample: the baseline model conditions on target history only,
the full model adds source history, and their per-timestep gap is the local
TE in nats.  Model-based differential entropies make individual values
(and even means, under misspecification) legitimately negative.  Both
modes read :class:`~cueflow.models.GaussianPredictions`'s entropies or densities.

:func:`local_te` returns a plain float64 array, one value per embedded row;
:class:`~cueflow.detector.DetectionTrace` carries it, with its times, after.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError
from .models import GaussianPredictions

SRC2TGT = "src2tgt"
TGT2SRC = "tgt2src"

ENTROPY_DIFF = "entropy_diff"
LOGLIK_RATIO = "loglik_ratio"
TE_MODES = (ENTROPY_DIFF, LOGLIK_RATIO)


def local_te(base: GaussianPredictions, full: GaussianPredictions,
             targets: np.ndarray, mode: str) -> np.ndarray:
    """Per-timestep TE in nats from baseline/full predictions of the same rows.

    ``entropy_diff`` is the predictive-entropy gap H_base - H_full; it
    ignores the realized targets.  ``loglik_ratio`` scores the realized
    samples under both models, ln p_full(x_t) - ln p_base(x_t), which
    restores local variation when both models are homoscedastic.  Both runs
    score the same embedded rows, in order, so they match in length and
    dimension, and each row gives one value.  ``mode`` is one of
    :data:`TE_MODES`, as ``config.ModelConfig`` checks.
    """
    if mode == ENTROPY_DIFF:
        te = base.entropy() - full.entropy()
    else:
        te = full.log_density(targets) - base.log_density(targets)
    if not np.isfinite(te).all():
        raise DataFormatError("non-finite local TE values")
    return te
