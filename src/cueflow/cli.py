"""Command-line interface.

Subcommands::

    run      --config C --trials DIR --out DIR   analyze trials end to end
    synth    --config C --out DIR                generate trials + ground truth
    oracle   --config C                          closed-form TE of the [synth] var1 process
    validate --config C                          check a config; print its diagnostics
    report   --events DIR --out DIR --config C [--trials DIR]
                                                 regenerate aggregates from saved outputs

Exit codes: 0 success, 1 usage error, 2 data/config error or an allocation
that fails.  Diagnostics and progress go to stderr (``--verbose`` raises
verbosity); results to stdout.
Every ``--set section.key=value`` overrides one config key.
"""

from __future__ import annotations

import os

# One BLAS thread: a training step's products (at most 256x64 blocks) are too
# small to repay a second thread, and results are the same on any count.  Set
# before numpy loads, for the command line only; the environment's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import pipeline, storage
from .config import load_config
from .errors import ConfigError, CueflowError, DataFormatError
from .timeseries import TimeSeries, Trial, TrialSet

logger = logging.getLogger("cueflow.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this CLI reserves 2 for data
    # errors, so usage failures are rerouted through _UsageError -> exit 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cueflow",
                     description="Directed-information cue detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="pipeline config file (INI sections)")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override one config key (repeatable)")
        p.add_argument("--verbose", action="store_true",
                       help="debug-level logging on stderr")

    p_run = sub.add_parser("run", help="analyze a directory of trial CSVs")
    common(p_run)
    p_run.add_argument("--trials", required=True, help="directory of trial CSVs")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate synthetic trials")
    common(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_oracle = sub.add_parser("oracle", help="closed-form TE for the [synth] var1 process")
    common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="check a config for consistency")
    common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="rebuild aggregates from saved outputs")
    common(p_rep)
    p_rep.add_argument("--events", required=True,
                       help="directory produced by a previous run")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--trials", default=None,
                       help="original trial directory (enables spatial grids)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def _out_dir(arg: str) -> Path:
    """The ``--out`` directory, created if absent, before any work is done."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CueflowError(f"cannot use --out {out} as a directory: "
                           f"{exc.strerror or exc}") from None
    return out


def _prepared_trials(trials_dir, cfg):
    """The trials of ``trials_dir``, prepared under ``cfg``, with the configured
    channels checked against its header before any trial body is parsed."""
    pipeline.check_channels(storage.trial_dir_channels(trials_dir), cfg)
    return pipeline.prepare_trials(storage.load_trial_dir(trials_dir), cfg)


def _cmd_run(args) -> int:
    cfg, _ = load_config(args.config, args.set)
    out = _out_dir(args.out)
    # No name holds the loaded or the prepared trials: the loaded set is freed
    # once it is prepared, the prepared set once run returns its summaries.
    results = pipeline.run(_prepared_trials(args.trials, cfg), cfg, out)
    n_events = sum(len(evs) for r in results for evs in r.events.values())
    print(f"analyzed {len(results)} trials; {n_events} cue events -> {out}")
    return 0


def _synth_spec(settings, i: int):
    """Trial ``i``'s ``CueScenario`` or ``Var1Spec`` under the ``[synth]``
    section ``settings``, seeded ``seed + i``: ``synth`` and ``oracle`` apply
    its rules alike, and a broken one is a ConfigError naming ``[synth]``."""
    # synth is imported where it is used, so run, report and validate start without it.
    from . import synth

    try:
        if settings.kind == "cue_scenario":
            return synth.CueScenario(
                duration_s=settings.duration_s, cue_times=settings.cue_times,
                response_delay_s=settings.response_delay_s, amplitude=settings.amplitude,
                noise_sigma=settings.noise_sigma, seed=settings.seed + i,
                rate_hz=settings.rate_hz)
        return synth.Var1Spec(a=np.asarray(settings.a).reshape(2, 2),
                              q=np.asarray(settings.q).reshape(2, 2),
                              n=settings.n, seed=settings.seed + i, dt=settings.dt)
    except DataFormatError as exc:
        raise ConfigError(f"[synth] {exc}") from None


def _synth_trials(settings) -> tuple[TrialSet, list[tuple[str, float, float]]]:
    """The trials ``cueflow synth`` writes, and a cue scenario's truth rows."""
    from . import synth

    trials, truths = [], []
    for i in range(settings.n_trials):
        spec, trial_id = _synth_spec(settings, i), f"t{i:03d}"
        if settings.kind == "var1":
            series = synth.gen_var1(spec)
        else:
            leader, follower, truth = synth.gen_cue_scenario(spec)
            # Integrated follower position, so spatial aggregation has coordinates.
            pos = np.cumsum(follower.data, axis=0) * leader.dt
            series = TimeSeries(channels=(*leader.channels, *follower.channels,
                                          "follower_px", "follower_py"),
                                data=np.hstack([leader.data, follower.data, pos]), dt=leader.dt)
            truths.extend((trial_id, s, e) for s, e in truth)
        trials.append(Trial(trial_id=trial_id, scenario=settings.kind, series=series))
    return TrialSet(trials=tuple(trials)), truths


def _cmd_synth(args) -> int:
    _, settings = load_config(args.config, args.set)
    if settings is None:
        raise ConfigError("config has no [synth] section")
    # Trials differ only in seed, so the first spec checks every rule of
    # [synth] before --out is created.
    _synth_spec(settings, 0)
    out = _out_dir(args.out)
    trials, truths = _synth_trials(settings)
    if settings.kind == "cue_scenario":
        storage.write_rows(out / "truth.csv", ["trial", "start_t", "end_t"],
                           ([t, repr(s), repr(e)] for t, s, e in truths))
    storage.write_trial_dir(trials, out)
    print(f"wrote {len(trials)} trials -> {out}")
    return 0


def _cmd_oracle(args) -> int:
    _, settings = load_config(args.config, args.set)
    if settings is None:
        raise ConfigError("config has no [synth] section")
    if settings.kind != "var1":
        raise ConfigError(f"oracle requires [synth] kind=var1, got {settings.kind!r}")
    from . import synth

    spec = _synth_spec(settings, 0)
    for direction in (synth.Y_TO_X, synth.X_TO_Y):
        te = synth.te_oracle_var1(spec, direction)
        print(f"te[{direction}] = {te!r} nats")
    return 0


def _cmd_validate(args) -> int:
    # A broken rule is a ConfigError from load_config: exit 2, named on stderr.
    cfg, _ = load_config(args.config, args.set)
    diags = pipeline.validate_config(cfg)
    for d in diags:
        print(f"{d.severity.upper()}: {d.message}")
    print(f"OK: 0 error(s), {sum(d.severity == 'warning' for d in diags)} warning(s)")
    return 0


def _cmd_report(args) -> int:
    cfg, _ = load_config(args.config, args.set)
    out = _out_dir(args.out)
    positions = None
    if args.trials is not None:
        positions = {trial.trial_id: trial.series
                     for trial in _prepared_trials(args.trials, cfg)}
    written = pipeline.build_reports(args.events, out, cfg, positions)
    print(f"wrote {len(written)} aggregate file(s) -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except CueflowError as exc:
        logger.error("%s", exc)
        return 2
    except MemoryError as exc:
        # numpy names the size it could not allocate; the command is named here.
        logger.error("%s: out of memory: %s", args.command,
                     str(exc) or "an allocation failed")
        return 2


if __name__ == "__main__":
    sys.exit(main())
