"""End-to-end orchestration: trials -> models -> local TE -> events -> aggregates.

Models are fit pooled across the trials of each scenario (matching how the
study protocol treats a scenario as one condition) and then applied to every
trial of that scenario.  Everything is deterministic for a fixed config and
seed.
"""

from __future__ import annotations

import csv
import logging
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import aggregate as agg
from . import storage
from .config import PipelineConfig
from .detector import DetectionTrace, DetectorConfig, detect_trace, time_constants
from .embedding import EmbeddedDataset, EmbeddingSpec, embed
from .errors import CueflowError, DataFormatError, PipelineError
from .models import (AUGMENTED, BASELINE, VAR_LINEAR, FittedModel, fit_mlp, fit_var,
                     predict_dataset)
from .te import SRC2TGT, TGT2SRC, TeSeries, local_te
from .timeseries import TimeSeries, TrialSet, resample, trim_start

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
    """Per-trial outputs: the detection trace (TE, threshold, events) per direction.

    ``prepared`` is the trial's series as analysed: resampled, then trimmed
    at its alignment point.
    """

    trial_id: str
    scenario: str
    prepared: TimeSeries
    traces: dict[str, DetectionTrace]

    @property
    def t0(self) -> float:
        return self.prepared.t0

    @property
    def duration_s(self) -> float:
        return self.prepared.duration


@dataclass
class PipelineResult:
    trials: list[TrialResult]


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
    if cfg.aggregate.cell_size_m is not None and cfg.aggregate.position_channels is None:
        out.append(Diagnostic("warning",
                   "cell_size_m is set but position_channels is not; "
                   "no spatial grid will be produced"))
    return out


def _prepare_trials(trials: TrialSet, cfg: PipelineConfig) -> list[TimeSeries]:
    """Each trial resampled to the analysis rate and trimmed, in trial order."""
    ids = {trial.trial_id for trial in trials}
    for key in trials.metadata:
        if key.startswith(TRIM_KEY_PREFIX) and key[len(TRIM_KEY_PREFIX):] not in ids:
            raise DataFormatError(f"metadata {key}: no trial with that id")
    out = []
    for trial in trials:
        try:
            series = resample(trial.series, cfg.io.resample_hz)
            out.append(_apply_trim(series, trial.trial_id, trials.metadata))
        except CueflowError as exc:
            raise PipelineError(f"trial {trial.trial_id!r}, stage prepare: {exc}") from exc
    return out


def _direction_roles(cfg: PipelineConfig, direction: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(modeled-target channels, history-source channels) for a direction."""
    if direction == SRC2TGT:
        return cfg.io.target_channels, cfg.io.source_channels
    return cfg.io.source_channels, cfg.io.target_channels


def _pool(datasets: list[EmbeddedDataset]) -> EmbeddedDataset:
    if len(datasets) == 1:
        return datasets[0]
    return EmbeddedDataset(
        targets=np.vstack([d.targets for d in datasets]),
        target_hist=np.vstack([d.target_hist for d in datasets]),
        source_hist=np.vstack([d.source_hist for d in datasets]),
        times=np.concatenate([d.times for d in datasets]),
        spec=datasets[0].spec,
    )


def _fit_pair(pooled: EmbeddedDataset, cfg: PipelineConfig, seed: int,
              scenario: str, direction: str) -> DirectionModels:
    if cfg.model.kind == VAR_LINEAR:
        base = fit_var(pooled, BASELINE)
        full = fit_var(pooled, AUGMENTED)
    else:
        base = fit_mlp(pooled, BASELINE, hidden=cfg.model.hidden,
                       train=cfg.model.train_config(seed))
        full = fit_mlp(pooled, AUGMENTED, hidden=cfg.model.hidden,
                       train=cfg.model.train_config(seed + 1))
    logger.info("fitted scenario %r, direction %s (%s): baseline NLL %.6g, "
                "augmented NLL %.6g", scenario, direction, cfg.model.kind,
                base.train_report.final_nll, full.train_report.final_nll)
    return DirectionModels(baseline=base, augmented=full)


def fit_models(trials: TrialSet, cfg: PipelineConfig, *,
               prepared: list[TimeSeries] | None = None
               ) -> dict[tuple[str, str], DirectionModels]:
    """Fit pooled per-scenario models for every configured direction.

    The mapping's keys are ``(scenario, direction)``.  ``prepared`` holds the
    trials' prepared series, in trial order, when the caller has them already.
    """
    if prepared is None:
        prepared = _prepare_trials(trials, cfg)
    spec = _embedding_spec(cfg)
    by_scenario: dict[str, list] = {}
    for trial, series in zip(trials, prepared):
        by_scenario.setdefault(trial.scenario, []).append((trial.trial_id, series))
    models: dict[tuple[str, str], DirectionModels] = {}
    for s_idx, (scenario, group) in enumerate(by_scenario.items()):
        for d_idx, direction in enumerate(cfg.io.direction_list):
            tgt_ch, src_ch = _direction_roles(cfg, direction)
            datasets = []
            for trial_id, series in group:
                try:
                    ds = embed(series.select(tgt_ch), series.select(src_ch), spec)
                except CueflowError as exc:
                    raise PipelineError(
                        f"trial {trial_id!r}, stage embed ({direction}): {exc}"
                    ) from exc
                datasets.append(ds)
            seed = cfg.io.seed + 4 * s_idx + 2 * d_idx
            try:
                models[(scenario, direction)] = _fit_pair(_pool(datasets), cfg, seed,
                                                          scenario, direction)
            except CueflowError as exc:
                raise PipelineError(
                    f"scenario {scenario!r}, stage fit ({direction}): {exc}"
                ) from exc
    return models


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


def _analyze_trial(trial, series: TimeSeries, cfg: PipelineConfig, spec: EmbeddingSpec,
                   det_cfg: DetectorConfig, models) -> TrialResult:
    traces: dict[str, DetectionTrace] = {}
    for direction in cfg.io.direction_list:
        tgt_ch, src_ch = _direction_roles(cfg, direction)
        pair = models[(trial.scenario, direction)]
        try:
            ds = embed(series.select(tgt_ch), series.select(src_ch), spec)
            base = predict_dataset(pair.baseline, ds)
            full = predict_dataset(pair.augmented, ds)
            te_series = local_te(base, full, ds.targets, mode=cfg.model.te_mode,
                                 direction=direction)
            traces[direction] = detect_trace(te_series, det_cfg)
        except CueflowError as exc:
            raise PipelineError(
                f"trial {trial.trial_id!r}, stage te ({direction}): {exc}"
            ) from exc
    return TrialResult(trial_id=trial.trial_id, scenario=trial.scenario,
                       prepared=series, traces=traces)


def run(trials: TrialSet, cfg: PipelineConfig) -> PipelineResult:
    """Analyze a trial set under one configuration.

    Models are fit pooled per scenario first (:func:`fit_models`).
    Cross-trial aggregates come from the written run directory, through
    :func:`build_reports`.
    """
    if len(trials) == 0:
        raise PipelineError("no trials to analyze")
    errors = [d for d in validate_config(cfg) if d.severity == "error"]
    if errors:
        raise PipelineError("invalid configuration: " + "; ".join(d.message for d in errors))
    spec = _embedding_spec(cfg)
    det_cfg = cfg.detector.to_config(cfg.dt)
    prepared = _prepare_trials(trials, cfg)
    models = fit_models(trials, cfg, prepared=prepared)
    return PipelineResult(trials=[_analyze_trial(t, s, cfg, spec, det_cfg, models)
                                  for t, s in zip(trials, prepared)])


def _rebase(ev, t0: float):
    return replace(ev, start_t=ev.start_t - t0, end_t=ev.end_t - t0)


# ---------------------------------------------------------------------------
# File-level products (shared by the run and report commands)
# ---------------------------------------------------------------------------

def te_csv_name(trial_id: str, direction: str) -> str:
    return f"te_{trial_id}_{direction}.csv"


def write_run_dir(result: PipelineResult, cfg: PipelineConfig, out_dir) -> None:
    """Write per-trial TE traces, the event table, and the trial manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_events = []
    for r in result.trials:
        for direction in cfg.io.direction_list:
            trace = r.traces[direction]
            storage.write_te_csv(trace, out / te_csv_name(r.trial_id, direction))
            all_events.extend((r.trial_id, ev) for ev in trace.events)
    storage.write_events_csv(all_events, out / "events.csv")
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows([r.trial_id, r.scenario, repr(r.t0), repr(r.duration_s)]
                         for r in result.trials)


def _read_manifest(events_dir) -> list[tuple[str, str, float, float]]:
    path = Path(events_dir) / "manifest.csv"
    if not path.exists():
        raise DataFormatError(f"missing manifest {path}")
    return storage.read_rows(path, MANIFEST_HEADER, (str, str, float, float))


def prepare_position_series(trials: TrialSet, cfg: PipelineConfig) -> dict[str, TimeSeries]:
    """Resampled/trimmed series per trial id, for spatial-grid aggregation."""
    return {trial.trial_id: series
            for trial, series in zip(trials, _prepare_trials(trials, cfg))}


def build_reports(events_dir, out_dir, cfg: PipelineConfig,
                  positions: dict[str, TimeSeries] | None = None) -> list[str]:
    """Regenerate aggregate products from a run directory's saved files.

    Reads ``manifest.csv``, ``events.csv``, and the per-trial TE traces under
    ``events_dir`` and writes histogram/grid/peak-TE products into
    ``out_dir``.  Because the trace formats round-trip losslessly, running
    this on a fresh run directory reproduces the aggregates byte for byte.
    Returns the names of the files written.
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
        groups: dict[str, list[dict[str, TeSeries]]] = {s: [] for s in scenarios}
        for trial_id, scenario, _, _ in manifest:
            series_map = {}
            for direction in cfg.io.direction_list:
                trace = storage.read_te_csv(events_dir / te_csv_name(trial_id, direction),
                                            direction=direction)
                series_map[direction] = TeSeries(direction=direction, times=trace.times,
                                                 te_raw=trace.te_raw,
                                                 mode=cfg.model.te_mode)
            groups[scenario].append(series_map)
        if min(len(g) for g in groups.values()) >= 2:
            report = agg.peak_te_study(groups[scenarios[0]], groups[scenarios[1]])
            storage.write_report_csv(report, out / "peak_te_report.csv")
            written.append("peak_te_report.csv")
    return written
