"""End-to-end orchestration: trials -> models -> local TE -> events -> aggregates.

Models are fit pooled across the trials of each scenario (matching how the
study protocol treats a scenario as one condition) and then applied to every
trial of that scenario.  Everything is deterministic for a fixed config and
seed.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import aggregate as agg
from . import storage
from .config import PipelineConfig
from .detector import CueEvent, DetectorConfig, detect_trace, time_constants
from .embedding import EmbeddedDataset, EmbeddingSpec, embed, history_rows
from .errors import CueflowError, DataFormatError, PipelineError
from .models import (AUGMENTED, BASELINE, VAR_LINEAR, FittedModel, fit_mlp, fit_var,
                     predict_dataset)
from .te import ENTROPY_DIFF, SRC2TGT, TGT2SRC, local_te
from .timeseries import TimeSeries, Trial, TrialSet, file_row, resample, trim_start

logger = logging.getLogger("cueflow")

Diagnostic = namedtuple("Diagnostic", ["severity", "message"])

TRIM_KEY_PREFIX = "trim_start_s."
MANIFEST_HEADER = ["trial", "scenario", "t0", "duration_s"]


@dataclass(frozen=True)
class DirectionModels:
    """Baseline/augmented pair fitted for one direction."""

    baseline: FittedModel
    augmented: FittedModel


@dataclass
class TrialResult:
    """What a run keeps of one trial once its TE traces are written: the
    cue events per direction.

    ``prepared`` is the trial's series as analysed: resampled, then trimmed
    at its alignment point.
    """

    trial_id: str
    scenario: str
    prepared: TimeSeries
    events: dict[str, list[CueEvent]]

    @property
    def t0(self) -> float:
        return self.prepared.t0

    @property
    def duration_s(self) -> float:
        return self.prepared.duration


@dataclass
class PipelineResult:
    trials: list[TrialResult]


class PreparedTrials(tuple):
    """Trials as analysed, in trial order: each one's series resampled to the
    analysis rate, then trimmed at its alignment point.

    Built by :func:`prepare_trials`; :func:`fit_models` and :func:`run` take
    nothing else, so a loaded :class:`TrialSet` is never analysed as it was
    recorded.
    """

    __slots__ = ()


def _embedding_spec(cfg: PipelineConfig) -> EmbeddingSpec:
    return EmbeddingSpec(d=cfg.embedding.d, delta_s=cfg.embedding.delta_s, dt=cfg.dt)


def validate_config(cfg: PipelineConfig) -> list[Diagnostic]:
    """Every rule :func:`run` checks before fitting, as diagnostics; raises nothing.

    The embedding spec and detector config are built here exactly as ``run``
    builds them, so their own checks are the rules.
    """
    out: list[Diagnostic] = []
    try:
        _embedding_spec(cfg)
    except CueflowError as exc:
        out.append(Diagnostic("error", f"[embedding] {exc}"))
    try:
        det = cfg.detector.to_config(cfg.dt)
    except CueflowError as exc:
        out.append(Diagnostic("error", f"[detector] {exc}"))
    else:
        tau_level, tau_trend = time_constants(det.alpha, det.beta, det.dt)
        out.append(Diagnostic("info",
                   f"threshold level time constant {tau_level:.4g} s, "
                   f"trend time constant {tau_trend:.4g} s"))
        if tau_trend > tau_level:
            out.append(Diagnostic("warning",
                       "trend smoother adapts more slowly than the level smoother "
                       f"({tau_trend:.4g} s > {tau_level:.4g} s)"))
    if cfg.model.kind == VAR_LINEAR and cfg.model.te_mode == ENTROPY_DIFF:
        out.append(Diagnostic("warning",
                   "[model] te_mode = entropy_diff with kind = var_linear gives a "
                   "constant TE trace (the covariance does not vary over time), "
                   "so no cue event can be detected; use loglik_ratio"))
    if cfg.aggregate.cell_size_m is not None and cfg.aggregate.position_channels is None:
        out.append(Diagnostic("warning",
                   "cell_size_m is set but position_channels is not; "
                   "no spatial grid will be produced"))
    return out


def prepare_trials(trials: TrialSet, cfg: PipelineConfig) -> PreparedTrials:
    """Each trial resampled to the analysis rate and trimmed, in trial order.

    The prepared series share no array with ``trials``, so a caller that
    keeps only the result frees the loaded set once this returns.
    """
    ids = {trial.trial_id for trial in trials}
    for key in trials.metadata:
        if key.startswith(TRIM_KEY_PREFIX) and key[len(TRIM_KEY_PREFIX):] not in ids:
            raise DataFormatError(f"metadata {key}: no trial with that id")
    out = []
    for trial in trials:
        try:
            series = resample(trial.series, cfg.io.resample_hz)
            series = _apply_trim(series, trial.trial_id, trials.metadata)
        except CueflowError as exc:
            raise PipelineError(f"trial {trial.trial_id!r}, stage prepare: {exc}") from exc
        out.append(Trial(trial_id=trial.trial_id, scenario=trial.scenario, series=series))
    return PreparedTrials(out)


def _require_prepared(trials) -> None:
    if not isinstance(trials, PreparedTrials):
        raise TypeError(f"expected trials from prepare_trials, got {type(trials).__name__}: "
                        "trials are analysed only once resampled and trimmed")


def _direction_roles(cfg: PipelineConfig, direction: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(modeled-target channels, history-source channels) for a direction."""
    if direction == SRC2TGT:
        return cfg.io.target_channels, cfg.io.source_channels
    return cfg.io.source_channels, cfg.io.target_channels


def _embed(group: list[Trial], cfg: PipelineConfig, spec: EmbeddingSpec,
           direction: str) -> EmbeddedDataset:
    """Embed the prepared trials of ``group`` for ``direction`` into one
    block, each series' channels read in place; an error names the trial."""
    roles = _direction_roles(cfg, direction)
    for trial in group:
        series = trial.series
        try:
            for names in roles:
                for name in names:
                    series.channel_index(name)
                if len(set(names)) != len(names):
                    raise DataFormatError(f"duplicate channel names: {names}")
            history_rows(series, series, spec)
        except CueflowError as exc:
            raise PipelineError(
                f"trial {trial.trial_id!r}, stage embed ({direction}): {exc}") from exc
    return embed([(trial.series, trial.series) for trial in group], spec, roles)


def _fit_pair(group: list[Trial], cfg: PipelineConfig,
              spec: EmbeddingSpec, seed: int, scenario: str,
              direction: str) -> DirectionModels:
    """Embed one scenario's trials for ``direction`` into one block and fit the pair."""
    pooled = _embed(group, cfg, spec, direction)
    try:
        if cfg.model.kind == VAR_LINEAR:
            base = fit_var(pooled, BASELINE)
            full = fit_var(pooled, AUGMENTED)
        else:
            base = fit_mlp(pooled, BASELINE, hidden=cfg.model.hidden,
                           train=cfg.model.train_config(seed))
            full = fit_mlp(pooled, AUGMENTED, hidden=cfg.model.hidden,
                           train=cfg.model.train_config(seed + 1))
    except CueflowError as exc:
        raise PipelineError(f"scenario {scenario!r}, stage fit ({direction}): {exc}") from exc
    logger.info("fitted scenario %r, direction %s (%s): baseline NLL %.6g, "
                "augmented NLL %.6g", scenario, direction, cfg.model.kind,
                base.train_report.final_nll, full.train_report.final_nll)
    return DirectionModels(baseline=base, augmented=full)


def fit_models(trials: PreparedTrials, cfg: PipelineConfig
               ) -> dict[tuple[str, str], DirectionModels]:
    """Fit pooled per-scenario models for every configured direction.

    The mapping's keys are ``(scenario, direction)``.
    """
    _require_prepared(trials)
    spec = _embedding_spec(cfg)
    by_scenario: dict[str, list[Trial]] = {}
    for trial in trials:
        by_scenario.setdefault(trial.scenario, []).append(trial)
    return {(scenario, direction):
            _fit_pair(group, cfg, spec, cfg.io.seed + 4 * s_idx + 2 * d_idx, scenario, direction)
            for s_idx, (scenario, group) in enumerate(by_scenario.items())
            for d_idx, direction in enumerate(cfg.io.direction_list)}


def _apply_trim(series: TimeSeries, trial_id: str, metadata: dict[str, str]) -> TimeSeries:
    key = TRIM_KEY_PREFIX + trial_id
    if key not in metadata:
        return series
    try:
        start_s = float(metadata[key])
    except ValueError:
        start_s = float("nan")
    if not np.isfinite(start_s):
        raise DataFormatError(
            f"metadata {key}={metadata[key]!r} is not a finite number of seconds"
        )
    return trim_start(series, start_s)


def _analyze_direction(trial: Trial, direction: str, cfg: PipelineConfig,
                       spec: EmbeddingSpec, det_cfg: DetectorConfig, pair: DirectionModels,
                       out: Path) -> list[CueEvent]:
    """Detect cues on one prepared trial in one direction and write its TE
    trace; only the events outlive the call."""
    try:
        ds = _embed([trial], cfg, spec, direction)
        times = ds.times
        te_raw = local_te(predict_dataset(pair.baseline, ds),
                          predict_dataset(pair.augmented, ds), ds.targets,
                          mode=cfg.model.te_mode)
        del ds  # detection needs the times and the TE alone
        trace = detect_trace(direction, times, te_raw, det_cfg)
    except CueflowError as exc:
        raise PipelineError(
            f"trial {trial.trial_id!r}, stage te ({direction}): {exc}"
        ) from exc
    storage.write_te_csv(trace, out / te_csv_name(trial.trial_id, direction))
    return trace.events


def _analyze_trial(trial: Trial, cfg: PipelineConfig, spec: EmbeddingSpec,
                   det_cfg: DetectorConfig, models, out: Path) -> TrialResult:
    return TrialResult(
        trial_id=trial.trial_id, scenario=trial.scenario, prepared=trial.series,
        events={direction: _analyze_direction(trial, direction, cfg, spec, det_cfg,
                                              models[(trial.scenario, direction)], out)
                for direction in cfg.io.direction_list})


def run(trials: PreparedTrials, cfg: PipelineConfig, out_dir) -> PipelineResult:
    """Analyze prepared trials under one configuration into the run directory
    ``out_dir``.

    ``trials`` comes from :func:`prepare_trials` under the same ``cfg``.
    Models are fit pooled per scenario first (:func:`fit_models`).  Each
    trial's TE traces are written as soon as it is analysed, and
    :func:`write_run_dir` writes ``events.csv`` and ``manifest.csv`` last,
    so a run that fails part way leaves no manifest.  Cross-trial
    aggregates come from the written run directory, through
    :func:`build_reports`.
    """
    _require_prepared(trials)
    if len(trials) == 0:
        raise PipelineError("no trials to analyze")
    errors = [d for d in validate_config(cfg) if d.severity == "error"]
    if errors:
        raise PipelineError("invalid configuration: " + "; ".join(d.message for d in errors))
    spec = _embedding_spec(cfg)
    det_cfg = cfg.detector.to_config(cfg.dt)
    models = fit_models(trials, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(trials=[_analyze_trial(trial, cfg, spec, det_cfg, models, out)
                                    for trial in trials])
    write_run_dir(result, cfg, out)
    return result


def _rebase(ev, t0: float):
    return replace(ev, start_t=ev.start_t - t0, end_t=ev.end_t - t0)


# ---------------------------------------------------------------------------
# File-level products (shared by the run and report commands)
# ---------------------------------------------------------------------------

def te_csv_name(trial_id: str, direction: str) -> str:
    return f"te_{trial_id}_{direction}.csv"


def write_run_dir(result: PipelineResult, cfg: PipelineConfig, out_dir) -> None:
    """Write the event table and then the trial manifest, which completes a
    run directory whose TE traces :func:`run` has written."""
    out = Path(out_dir)
    all_events = [(r.trial_id, ev) for r in result.trials
                  for direction in cfg.io.direction_list for ev in r.events[direction]]
    storage.write_events_csv(all_events, out / "events.csv")
    storage.write_rows(out / "manifest.csv", MANIFEST_HEADER,
                       ([r.trial_id, r.scenario, repr(r.t0), repr(r.duration_s)]
                        for r in result.trials), lineterminator="\n")


def _read_manifest(events_dir) -> list[tuple[str, str, float, float]]:
    path = Path(events_dir) / "manifest.csv"
    if not path.exists():
        raise DataFormatError(f"missing manifest {path}")
    return storage.read_rows(path, MANIFEST_HEADER, (str, str, float, float))


def build_reports(events_dir, out_dir, cfg: PipelineConfig,
                  positions: dict[str, TimeSeries] | None = None) -> list[str]:
    """Regenerate aggregate products from a run directory's saved files.

    Reads ``manifest.csv``, ``events.csv``, and the per-trial TE traces under
    ``events_dir`` and writes histogram/grid/peak-TE products into
    ``out_dir``; the peak-TE study takes each trace's ``te_raw`` as read
    back, and a non-finite value there is an error naming its file and row.
    Because the trace formats round-trip losslessly, running this on a fresh
    run directory reproduces the aggregates byte for byte.  Returns the
    names of the files written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events_dir = Path(events_dir)
    manifest = _read_manifest(events_dir)
    saved_events = storage.read_events_csv(events_dir / "events.csv")
    by_key: dict[tuple[str, str], list] = {}
    for trial_id, ev in saved_events:
        by_key.setdefault((trial_id, ev.direction), []).append(ev)

    written: list[str] = []
    for direction in cfg.io.direction_list:
        if cfg.aggregate.bin_dt is not None:
            hist_in = []
            for trial_id, _, t0, duration in manifest:
                evs = [_rebase(e, t0) for e in by_key.get((trial_id, direction), [])]
                hist_in.append((evs, duration))
            hist = agg.temporal_histogram(hist_in, cfg.aggregate.bin_dt,
                                          direction=direction)
            name = f"histogram_{direction}.csv"
            storage.write_histogram_csv(hist, out / name)
            written.append(name)
        if (cfg.aggregate.cell_size_m is not None
                and cfg.aggregate.position_channels and positions is not None):
            grid_in = []
            for trial_id, _, _, _ in manifest:
                if trial_id not in positions:
                    raise PipelineError(f"no position series for trial {trial_id!r}")
                grid_in.append((by_key.get((trial_id, direction), []),
                                positions[trial_id]))
            grid = agg.spatial_grid(grid_in, cfg.aggregate.cell_size_m,
                                    channels=tuple(cfg.aggregate.position_channels),
                                    direction=direction)
            name = f"grid_{direction}.csv"
            storage.write_grid_csv(grid, out / name)
            written.append(name)

    scenarios = []
    for _, scenario, _, _ in manifest:
        if scenario not in scenarios:
            scenarios.append(scenario)
    if len(scenarios) == 2:
        groups: dict[str, list[dict[str, np.ndarray]]] = {s: [] for s in scenarios}
        for trial_id, scenario, _, _ in manifest:
            te_map = {}
            for direction in cfg.io.direction_list:
                path = events_dir / te_csv_name(trial_id, direction)
                te_raw = storage.read_te_csv(path, direction).te_raw
                bad = np.flatnonzero(~np.isfinite(te_raw))
                if bad.size:
                    raise DataFormatError(f"{path}: te_raw value {te_raw[bad[0]]} at row "
                                          f"{file_row(path, int(bad[0]))} is not finite")
                te_map[direction] = te_raw
            groups[scenario].append(te_map)
        if min(len(g) for g in groups.values()) >= 2:
            report = agg.peak_te_study(groups[scenarios[0]], groups[scenarios[1]])
            storage.write_report_csv(report, out / "peak_te_report.csv")
            written.append("peak_te_report.csv")
    return written
