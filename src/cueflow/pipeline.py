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
from .detector import CueEvent, detect_trace, time_constants
from .embedding import embed
from .errors import CueflowError, DataFormatError, PipelineError
from .models import (AUGMENTED, BASELINE, VAR_LINEAR, FittedModel, fit_mlp, fit_var,
                     predict_dataset)
from .te import ENTROPY_DIFF, SRC2TGT, TGT2SRC, local_te
from .timeseries import TimeSeries, Trial, TrialSet, grid_times, resample, trim_start

logger = logging.getLogger("cueflow")

Diagnostic = namedtuple("Diagnostic", ["severity", "message"])

TRIM_KEY_PREFIX = "trim_start_s."
MANIFEST_HEADER = ["trial", "scenario", "t0", "duration_s"]
# An augmented fit's NLL above its baseline's by more than this many nats per
# sample is flagged: the augmented model sees a superset of the baseline's
# inputs, so it should fit no worse.  Far above rounding: nested linear fits
# on a null scenario differ by under 1e-12, and two fits on the variance floor
# tie.
NLL_TIE_NATS = 1e-9


@dataclass(frozen=True)
class DirectionModels:
    """Baseline/augmented pair fitted for one direction."""

    baseline: FittedModel
    augmented: FittedModel


@dataclass(frozen=True)
class TrialResult:
    """What :func:`run` returns of one trial once its files are written: its
    id and scenario, the start time and duration of its series as analysed,
    and its cue events per direction."""

    trial_id: str
    scenario: str
    t0: float
    duration_s: float
    events: dict[str, list[CueEvent]]


class PreparedTrials(tuple):
    """Trials as analysed, in trial order: each one's series resampled to the
    analysis rate, then trimmed at its alignment point.

    Built by :func:`prepare_trials`, which checks them; :func:`fit_models`
    and :func:`run` take nothing else and trust those checks, so a loaded
    :class:`TrialSet` is never analysed as it was recorded.
    """

    __slots__ = ()


def validate_config(cfg: PipelineConfig) -> list[Diagnostic]:
    """Notes and warnings on a config, as ``info`` and ``warning`` diagnostics.

    There are no errors to report: a config that breaks a rule raises a
    :class:`ConfigError` when it is built, so it never gets here.
    """
    tau_level, tau_trend = time_constants(cfg.detector.alpha, cfg.detector.beta, cfg.dt)
    out = [Diagnostic("info", f"threshold level time constant {tau_level:.4g} s, "
                              f"trend time constant {tau_trend:.4g} s")]
    if tau_trend > tau_level:
        out.append(Diagnostic("warning",
                   "trend smoother adapts more slowly than the level smoother "
                   f"({tau_trend:.4g} s > {tau_level:.4g} s)"))
    if cfg.model.kind == VAR_LINEAR and cfg.model.te_mode == ENTROPY_DIFF:
        out.append(Diagnostic("warning",
                   "[model] te_mode = entropy_diff with kind = var_linear gives a "
                   "constant TE trace (the covariance does not vary over time), "
                   "so no cue event can be detected; use loglik_ratio"))
    return out


def check_channels(channels: tuple[str, ...], cfg: PipelineConfig) -> None:
    """Check that the trials' schema ``channels`` holds every ``[io]`` and
    ``[aggregate]`` channel name; an error names the key and the channel."""
    for key, names in (("[io] target_channels", cfg.io.target_channels),
                       ("[io] source_channels", cfg.io.source_channels),
                       ("[aggregate] position_channels", cfg.aggregate.position_channels or ())):
        for name in names:
            if name not in channels:
                raise PipelineError(f"stage prepare: {key} names channel {name!r}, "
                                    f"which the trials lack; they hold {list(channels)}")


def prepare_trials(trials: TrialSet, cfg: PipelineConfig) -> PreparedTrials:
    """Each trial resampled to the analysis rate and trimmed, in trial order.

    The trials are checked here, once: the set is not empty, its one
    channel schema holds every configured channel (:func:`check_channels`),
    each metadata key ``trim_start_s.<trial>`` names a trial and holds a
    finite number of seconds, at which that trial is trimmed once
    resampled, and each prepared series is longer than the embedding
    horizon; an error names the key or the trial.

    The prepared series share no array with ``trials``, so a caller that
    keeps only the result frees the loaded set once this returns.
    """
    if len(trials) == 0:
        raise PipelineError("no trials to analyze")
    check_channels(trials.trials[0].series.channels, cfg)
    ids = {trial.trial_id for trial in trials}
    starts: dict[str, float] = {}
    for key, value in trials.metadata.items():
        if not key.startswith(TRIM_KEY_PREFIX):
            continue
        trial_id = key[len(TRIM_KEY_PREFIX):]
        if trial_id not in ids:
            raise DataFormatError(f"metadata {key}: no trial with that id")
        try:
            start_s = float(value)
        except ValueError:
            start_s = float("nan")
        if not np.isfinite(start_s):
            raise PipelineError(f"trial {trial_id!r}, stage prepare: metadata "
                                f"{key}={value!r} is not a finite number of seconds")
        starts[trial_id] = start_s
    horizon = cfg.embedding.horizon(cfg.dt)
    out = []
    for trial in trials:
        try:
            series = resample(trial.series, cfg.io.resample_hz)
            if trial.trial_id in starts:
                series = trim_start(series, starts[trial.trial_id])
            if series.n_samples <= horizon:
                raise DataFormatError(f"series too short to embed: need more than "
                                      f"{horizon} samples, got {series.n_samples}")
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


def _fit_pair(group: list[Trial], cfg: PipelineConfig, seed: int, scenario: str,
              direction: str) -> DirectionModels:
    """Embed one scenario's trials for ``direction`` into one block and fit the pair."""
    try:
        pooled = embed([trial.series for trial in group], cfg.embedding,
                       _direction_roles(cfg, direction))
        if cfg.model.kind == VAR_LINEAR:
            base = fit_var(pooled, BASELINE)
            full = fit_var(pooled, AUGMENTED)
        else:
            base = fit_mlp(pooled, BASELINE, cfg.model, seed)
            full = fit_mlp(pooled, AUGMENTED, cfg.model, seed + 1)
    except CueflowError as exc:
        raise PipelineError(f"scenario {scenario!r}, stage fit ({direction}): {exc}") from exc
    base_nll, full_nll = base.train_report.final_nll, full.train_report.final_nll
    logger.info("fitted scenario %r, direction %s (%s): baseline NLL %.6g, "
                "augmented NLL %.6g", scenario, direction, cfg.model.kind,
                base_nll, full_nll)
    if full_nll > base_nll + NLL_TIE_NATS:
        logger.warning("scenario %r, direction %s (%s): the augmented fit's NLL "
                       "%.6g is above the baseline's %.6g, although it sees the "
                       "baseline's inputs too", scenario, direction, cfg.model.kind,
                       full_nll, base_nll)
    return DirectionModels(baseline=base, augmented=full)


def fit_models(trials: PreparedTrials, cfg: PipelineConfig
               ) -> dict[tuple[str, str], DirectionModels]:
    """Fit pooled per-scenario models for every configured direction.

    The mapping's keys are ``(scenario, direction)``.
    """
    _require_prepared(trials)
    by_scenario: dict[str, list[Trial]] = {}
    for trial in trials:
        by_scenario.setdefault(trial.scenario, []).append(trial)
    return {(scenario, direction):
            _fit_pair(group, cfg, cfg.io.seed + 4 * s_idx + 2 * d_idx, scenario, direction)
            for s_idx, (scenario, group) in enumerate(by_scenario.items())
            for d_idx, direction in enumerate(cfg.io.direction_list)}


def _analyze_direction(trial: Trial, direction: str, cfg: PipelineConfig,
                       pair: DirectionModels, out: Path) -> list[CueEvent]:
    """Detect cues on one prepared trial in one direction and write its TE
    trace; only the events outlive the call."""
    try:
        ds = embed([trial.series], cfg.embedding, _direction_roles(cfg, direction))
        te_raw = local_te(predict_dataset(pair.baseline, ds),
                          predict_dataset(pair.augmented, ds), ds.targets,
                          mode=cfg.model.te_mode)
        del ds  # detection needs the TE alone, with the instants a reader rebuilds
        trace = detect_trace(direction, trace_times(trial.series.t0, te_raw.size, cfg),
                             te_raw, cfg.detector, cfg.dt)
    except CueflowError as exc:
        raise PipelineError(
            f"trial {trial.trial_id!r}, stage te ({direction}): {exc}"
        ) from exc
    storage.write_te_csv(trace, out / te_csv_name(trial.trial_id, direction))
    return trace.events


def _analyze_trial(trial: Trial, cfg: PipelineConfig, models, out: Path) -> TrialResult:
    return TrialResult(
        trial_id=trial.trial_id, scenario=trial.scenario, t0=trial.series.t0,
        duration_s=trial.series.duration,
        events={direction: _analyze_direction(trial, direction, cfg,
                                              models[(trial.scenario, direction)], out)
                for direction in cfg.io.direction_list})


def run(trials: PreparedTrials, cfg: PipelineConfig, out_dir) -> list[TrialResult]:
    """Analyze prepared trials under one configuration into the complete run
    directory ``out_dir``; return one :class:`TrialResult` per trial, in
    trial order.

    ``trials`` comes from :func:`prepare_trials` under the same ``cfg``.
    Models are fit pooled per scenario first (:func:`fit_models`).  Each
    trial's TE traces are written as soon as it is analysed, then
    :func:`write_run_dir` writes ``events.csv`` and ``manifest.csv``, so a
    run that fails part way leaves no manifest.  The aggregates come last,
    from the written files, by the :func:`build_reports` that ``cueflow
    report`` uses, with the prepared series as positions."""
    _require_prepared(trials)
    models = fit_models(trials, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [_analyze_trial(trial, cfg, models, out) for trial in trials]
    write_run_dir(results, cfg, out)
    build_reports(out, out, cfg, {trial.trial_id: trial.series for trial in trials})
    return results


# ---------------------------------------------------------------------------
# File-level products (shared by the run and report commands)
# ---------------------------------------------------------------------------

def te_csv_name(trial_id: str, direction: str) -> str:
    return f"te_{trial_id}_{direction}.csv"


def trace_times(t0: float, n_rows: int, cfg: PipelineConfig) -> np.ndarray:
    """The instants of the ``n_rows`` rows of a TE trace written under
    ``cfg``, for the trial whose prepared series starts at ``t0`` (its
    ``manifest.csv`` entry): the grid instants from the embedding horizon
    on, bitwise the prepared series' ``times[horizon:]``.  This is the one
    place a trace row's instant is computed."""
    horizon = cfg.embedding.horizon(cfg.dt)
    return grid_times(t0, cfg.dt, np.arange(horizon, horizon + n_rows))


def write_run_dir(results: list[TrialResult], cfg: PipelineConfig, out_dir) -> None:
    """Write the event table and then the trial manifest, after the TE traces
    :func:`run` has written and before the aggregates."""
    out = Path(out_dir)
    all_events = [(r.trial_id, ev) for r in results
                  for direction in cfg.io.direction_list for ev in r.events[direction]]
    storage.write_events_csv(all_events, out / "events.csv")
    storage.write_rows(out / "manifest.csv", MANIFEST_HEADER,
                       ([r.trial_id, r.scenario, repr(r.t0), repr(r.duration_s)]
                        for r in results))


def _read_run_dir(events_dir: Path):
    """A run directory's manifest rows and its events by ``(trial, direction)``.

    A trial is listed once, with a positive duration.  An event's trial is
    listed, its direction is ``src2tgt`` or ``tgt2src``, and it lies within
    its trial's ``[t0, t0 + duration_s]`` (to 1e-9 s), ending no earlier
    than it starts.  A row that breaks a rule is an error naming its file
    and row."""
    path = events_dir / "manifest.csv"
    if not path.exists():
        raise DataFormatError(f"missing manifest {path}")
    manifest = storage.read_rows(path, MANIFEST_HEADER, (str, str, float, float))
    spans: dict[str, tuple[float, float]] = {}
    for i, (trial_id, _, t0, duration) in enumerate(manifest):
        if trial_id in spans or duration <= 0:
            problem = (f"trial {trial_id!r} is listed again" if trial_id in spans
                       else f"duration_s {duration} is not positive")
            raise DataFormatError(f"{path}: row {storage.file_row(path, i)}: {problem}")
        spans[trial_id] = (t0, duration)

    path = events_dir / "events.csv"
    by_key: dict[tuple[str, str], list[CueEvent]] = {}
    for i, (trial_id, ev) in enumerate(storage.read_events_csv(path)):
        span = spans.get(trial_id)
        if span is None:
            problem = f"trial {trial_id!r} is not in manifest.csv"
        elif ev.direction not in (SRC2TGT, TGT2SRC):
            problem = f"direction {ev.direction!r} is neither {SRC2TGT} nor {TGT2SRC}"
        elif ev.end_t < ev.start_t:
            problem = f"end_t {ev.end_t} is before start_t {ev.start_t}"
        elif ev.start_t - span[0] < -1e-9 or ev.end_t - span[0] > span[1] + 1e-9:
            problem = (f"event [{ev.start_t}, {ev.end_t}] is outside trial {trial_id!r}, "
                       f"which spans [{span[0]}, {span[0] + span[1]}]")
        else:
            by_key.setdefault((trial_id, ev.direction), []).append(ev)
            continue
        raise DataFormatError(f"{path}: row {storage.file_row(path, i)}: {problem}")
    return manifest, by_key


def build_reports(events_dir, out_dir, cfg: PipelineConfig,
                  positions: dict[str, TimeSeries] | None = None) -> list[str]:
    """Build the aggregate products of a run directory from its saved files.

    :func:`run` calls this on its own directory, with its prepared series
    as ``positions``; ``cueflow report`` calls it on a saved one.  Reads
    ``manifest.csv`` and ``events.csv`` under ``events_dir`` and, when
    the manifest lists two scenarios of at least two trials each, their
    TE traces for the peak-TE report; then writes histogram/grid/peak-TE
    products into ``out_dir``.  A non-finite number in a table or trace,
    or a table row that disagrees with the others (see
    :func:`_read_run_dir`), is an error naming its file and row.  Every
    input is read and checked before the first file is written, so a
    call that raises writes nothing.  The trace formats round-trip
    losslessly, so this reproduces a run directory's own aggregates byte
    for byte.  Returns the names of the files written."""
    events_dir = Path(events_dir)
    manifest, by_key = _read_run_dir(events_dir)

    products = []
    for direction in cfg.io.direction_list:
        hist_in = []
        for trial_id, _, t0, duration in manifest:
            hist_in.append(([replace(e, start_t=e.start_t - t0, end_t=e.end_t - t0)
                             for e in by_key.get((trial_id, direction), [])], duration))
        try:
            hist = agg.temporal_histogram(hist_in, cfg.aggregate.bin_dt, direction=direction)
        except DataFormatError as exc:
            if not manifest:
                raise
            # Every event has passed _read_run_dir, so what failed is the
            # bin count of the longest trial: name its manifest row.
            path = events_dir / "manifest.csv"
            row = max(range(len(manifest)), key=lambda i: manifest[i][3])
            raise DataFormatError(
                f"{path}: row {storage.file_row(path, row)}: {exc}") from None
        products.append((f"histogram_{direction}.csv", storage.write_histogram_csv, hist))
        if cfg.aggregate.cell_size_m is not None and positions is not None:
            grid_in = []
            for trial_id, _, _, _ in manifest:
                if trial_id not in positions:
                    raise PipelineError(f"no position series for trial {trial_id!r}")
                grid_in.append((by_key.get((trial_id, direction), []),
                                positions[trial_id]))
            grid = agg.spatial_grid(grid_in, cfg.aggregate.cell_size_m,
                                    channels=tuple(cfg.aggregate.position_channels),
                                    direction=direction)
            products.append((f"grid_{direction}.csv", storage.write_grid_csv, grid))

    groups: dict[str, list[str]] = {}
    for trial_id, scenario, _, _ in manifest:
        groups.setdefault(scenario, []).append(trial_id)
    if len(groups) == 2 and min(len(ids) for ids in groups.values()) >= 2:
        report = agg.peak_te_study(*(
            [{direction: storage.read_te_csv(events_dir / te_csv_name(trial_id, direction))
              for direction in cfg.io.direction_list} for trial_id in ids]
            for ids in groups.values()))
        products.append(("peak_te_report.csv", storage.write_report_csv, report))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write, product in products:
        write(product, out / name)
    return [name for name, _, _ in products]
