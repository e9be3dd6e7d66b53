"""Shared fixtures: synthetic end-to-end runs and VAR oracle sweeps.

The leader/follower Monte-Carlo runs are expensive (dozens of network fits),
so they run once per session and every module that needs them shares the
result.
"""
import time
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cueflow import pipeline, storage
from cueflow.config import AggregateConfig, IoConfig, ModelConfig, PipelineConfig
from cueflow.detector import DetectorConfig, detect_trace
from cueflow.embedding import EmbeddingSpec, embed
from cueflow.models import (AUGMENTED, BASELINE, _init_layers, _nll_and_grads, fit_var,
                            predict_dataset)
from cueflow.synth import CueScenario, Var1Spec, gen_cue_scenario, gen_var1
from cueflow.te import ENTROPY_DIFF, local_te
from cueflow.timeseries import TimeSeries, Trial, TrialSet

# End-to-end scenario constants, shared by the synth examples and the
# acceptance suite.
E2E_RATE_HZ = 10.0
E2E_CUE_T = 8.0
# "within +/- 0.3 s" with a float-safe boundary: 8.3 - 8.0 rounds to
# 0.30000000000000071 in binary, which a bare <= 0.3 would reject.
E2E_ONSET_TOL = 0.3 + 1e-6
E2E_DRIVEN_SEEDS = range(500, 520)
E2E_NULL_SEEDS = range(200, 220)


def _cue_trial(trial_id: str, scenario: str, scen: CueScenario) -> Trial:
    leader, follower, _ = gen_cue_scenario(scen)
    data = np.hstack([leader.data, follower.data])
    series = TimeSeries(channels=(*leader.channels, *follower.channels),
                        data=data, dt=leader.dt)
    return Trial(trial_id=trial_id, scenario=scenario, series=series)


def _e2e_config() -> PipelineConfig:
    # Detector time constants: level 60 samples (6 s), trend 10 samples (1 s).
    return PipelineConfig(
        io=IoConfig(target_channels=("follower_vx", "follower_vy"),
                    source_channels=("leader_vx", "leader_vy"),
                    resample_hz=E2E_RATE_HZ, directions="src2tgt", seed=0),
        embedding=EmbeddingSpec(d=4, delta_s=0.1),
        model=ModelConfig(kind="mlp_gaussian", te_mode="entropy_diff",
                          hidden=(64, 64), epochs=200),
        detector=DetectorConfig(alpha=1.0 - np.exp(-1.0 / 60.0),
                                beta=1.0 - np.exp(-1.0 / 10.0),
                                gamma=3.0, hp_cutoff_hz=0.5),
        aggregate=AggregateConfig(bin_dt=1.0),
    )


def run_read_back(trials: TrialSet, cfg: PipelineConfig, out_dir):
    """``pipeline.run`` of the prepared ``trials`` into ``out_dir``, then
    every TE trace read back from its file with ``storage.read_te_csv``, its
    instants rebuilt by ``pipeline.trace_times`` from the trial's ``t0`` in
    the run's ``manifest.csv``, and its cue mask by ``detect_trace``,
    carrying the run's events.

    Returns the run's trial summaries and, per trial in trial order, a dict
    of direction -> trace.
    """
    results = pipeline.run(pipeline.prepare_trials(trials, cfg), cfg, out_dir)
    t0s = {trial_id: t0 for trial_id, _, t0, _ in storage.read_rows(
        Path(out_dir) / "manifest.csv", pipeline.MANIFEST_HEADER, (str, str, float, float))}

    def read_back(trial_id, direction, events):
        te_raw = storage.read_te_csv(Path(out_dir) / pipeline.te_csv_name(trial_id, direction))
        times = pipeline.trace_times(t0s[trial_id], te_raw.size, cfg)
        return replace(detect_trace(direction, times, te_raw, cfg.detector, cfg.dt),
                       events=events)

    traces = [{direction: read_back(r.trial_id, direction, events)
               for direction, events in r.events.items()}
              for r in results]
    return results, traces


@pytest.fixture(scope="session")
def e2e_config():
    return _e2e_config()


class TimedRun(list):
    """A run's trial summaries, with the run's wall time as ``elapsed_s``."""


def _timed_run(trials, cfg, out_dir):
    start = time.perf_counter()
    results, traces = run_read_back(trials, cfg, out_dir)
    timed = TimedRun(results)
    timed.elapsed_s = time.perf_counter() - start
    return timed, traces


@pytest.fixture(scope="session")
def driven_run(e2e_config, tmp_path_factory):
    """Twenty driven trials (one scripted cue each) through the full pipeline."""
    trials = TrialSet(trials=tuple(
        _cue_trial(f"d{seed:03d}", "driven",
                   CueScenario(duration_s=20.0, cue_times=(E2E_CUE_T,),
                               response_delay_s=0.05, amplitude=1.5,
                               noise_sigma=0.2, seed=seed, rate_hz=E2E_RATE_HZ))
        for seed in E2E_DRIVEN_SEEDS))
    return _timed_run(trials, e2e_config, tmp_path_factory.mktemp("driven_run"))


@pytest.fixture(scope="session")
def null_run(e2e_config, tmp_path_factory):
    """Twenty cue-free trials (flat heading, noise only), 120 s each."""
    trials = TrialSet(trials=tuple(
        _cue_trial(f"n{seed:03d}", "null",
                   CueScenario(duration_s=120.0, cue_times=(),
                               response_delay_s=0.05, amplitude=0.0,
                               noise_sigma=0.2, seed=seed, rate_hz=E2E_RATE_HZ))
        for seed in E2E_NULL_SEEDS))
    return _timed_run(trials, e2e_config, tmp_path_factory.mktemp("null_run"))


def write_decimal_trial(path, rate_hz: float, n: int = 2401, seed: int = 0) -> None:
    """A one-channel trial CSV of ``n`` rows at ``rate_hz``, stamped in
    decimals as recorders write them (``%.6f`` of ``k / rate_hz``), with
    random values written as their ``repr``."""
    values = np.random.default_rng(seed).standard_normal(n)
    path.write_text("t,x\n" + "".join(f"{k / rate_hz:.6f},{v!r}\n"
                                       for k, v in enumerate(values.tolist())))


COUPLED_A = ((0.5, 0.5), (0.0, 0.0))
IDENTITY_Q = ((1.0, 0.0), (0.0, 1.0))


def var1_trial(trial_id: str, seed: int, n: int,
               scenario: str = "var1") -> tuple[Trial, Var1Spec]:
    """One coupled-pair draw packed into a two-channel trial."""
    spec = Var1Spec(a=COUPLED_A, q=IDENTITY_Q, n=n, dt=0.01, seed=seed)
    return Trial(trial_id=trial_id, scenario=scenario, series=gen_var1(spec)), spec


def var1_trial_set(*trials: Trial, metadata: dict | None = None) -> TrialSet:
    return TrialSet(trials=tuple(trials), metadata=metadata or {})


def _coupling_spec(c: float, n: int, seed: int) -> Var1Spec:
    return Var1Spec(a=((0.5, c), (0.0, 0.0)), q=((1.0, 0.0), (0.0, 1.0)),
                    n=n, dt=0.01, seed=seed)


def _var1_mean_te(spec: Var1Spec, reverse: bool = False) -> float:
    """Empirical mean TE of a VAR(1) draw through the estimation stack.

    Embeds at d=1, fits baseline/augmented linear models, and averages the
    entropy-difference local TE.  ``reverse`` estimates x -> y instead.
    """
    roles = (("y",), ("x",)) if reverse else (("x",), ("y",))
    ds = embed([gen_var1(spec)], EmbeddingSpec(d=1, delta_s=spec.dt), roles)
    base = predict_dataset(fit_var(ds, BASELINE), ds)
    full = predict_dataset(fit_var(ds, AUGMENTED), ds)
    return float(np.mean(local_te(base, full, ds.targets, mode=ENTROPY_DIFF)))


@pytest.fixture(scope="session")
def var1_mean_te():
    return _var1_mean_te


@pytest.fixture(scope="session")
def coupling_spec():
    return _coupling_spec


@pytest.fixture(scope="session")
def var1_sweep(var1_mean_te, coupling_spec):
    """Empirical mean TE at n=1e5 for coupling strengths 0.1 .. 0.7."""
    return {c: var1_mean_te(coupling_spec(c, 100_000, seed=17))
            for c in (0.1, 0.3, 0.5, 0.7)}


def mlp_model(hidden: tuple[int, ...], **train) -> SimpleNamespace:
    """What ``fit_mlp`` reads of a ``[model]`` section: the ``hidden`` layer
    widths and a :class:`ModelConfig`'s training keys, its defaults where
    ``train`` names none.  ``hidden`` may be ``()``, a network without hidden
    layers (linear-Gaussian), which the section itself refuses."""
    return SimpleNamespace(**{**asdict(ModelConfig(**train)), "hidden": hidden})


def gradient_check(hidden: tuple[int, ...] = (8,), input_dim: int = 3,
                   output_dim: int = 2, n_rows: int = 16, seed: int = 0,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference NLL gradients
    on a small random batch drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, input_dim))
    y = rng.normal(size=(n_rows, output_dim))
    layers = _init_layers(input_dim, output_dim, hidden, rng)
    _, grads = _nll_and_grads(layers, x, y, output_dim)
    worst = 0.0
    for j, layer in enumerate(layers):
        flat = layer.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi, _ = _nll_and_grads(layers, x, y, output_dim)
            flat[k] = orig - step
            lo, _ = _nll_and_grads(layers, x, y, output_dim)
            flat[k] = orig
            numeric = (hi - lo) / (2.0 * step)
            analytic = grads[j].ravel()[k]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
