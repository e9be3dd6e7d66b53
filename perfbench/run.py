"""Closed-loop benchmark of the cueflow command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package need not be
installed.  Set-up writes the workload's trial CSVs from ``--seed`` (for
``report_200hz`` it also writes, with an untimed ``cueflow run``, the run
directory the report reads).  The timed loop then starts one
``python -m cueflow.cli`` child at a time with ``PYTHONPATH=src``, each after
the previous one has exited, until ``--seconds`` have passed, and checks the
outputs of every invocation.  With ``--trace 1`` it also times ``validate``
children (CLI start-up) and one traced in-process run (``tracer.py``), which
give the per-layer split.

Host speed: on a machine shared with other tenants the speed of the host
drifts (by up to 1.4x between two sets of runs ten minutes apart, on a
2-vCPU VM; within one run, by up to 2x over seconds), and every time the
program takes drifts with it.  So one pass of a fixed reference task
(:func:`reference_s`, which no change to cueflow can touch) runs before the
first timed item and after every timed invocation and set-up.  The timing
metrics ``wall_s``, ``rows_per_s`` and ``setup_s`` are the run's raw medians
times ``REF_NOMINAL_S / mean reference time``: seconds on a host where the
reference pass takes ``REF_NOMINAL_S``.  The mean, not the median, because
the host switches between a fast and a slow state (passes of about 60 ms or
about 100 ms on a 2-vCPU VM): a multi-second invocation is slowed by the
share of time spent slow, which the mean of many short passes tracks and
their median does not.  Scaling single invocations by the passes next to
them is noisier.
The raw medians and the reference times are printed too; the per-layer
times are raw.

Human-readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  All scratch files
live under ``.perfbench_tmp/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Set-up runs SETUP_REPEATS times before the timed loop, and again between
# timed invocations while the loop's set-up time stays under SETUP_SHARE of
# the loop's time, so that setup_s, the median, samples the same stretch of
# the machine's speed as wall_s.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1
# Timing metrics are in seconds of a host where one reference_s() pass takes
# this long (see the module docstring).
REF_NOMINAL_S = 0.1
STARTUP_REPEATS = 3
# A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0
# How often the resident memory of a child's process tree is sampled.
RSS_SAMPLE_S = 0.05
# Criterion-5 onset tolerance, with the float-safe boundary the acceptance
# suite uses (8.3 - 8.0 is 0.30000000000000071 in binary).
HIT_TOL_S = 0.3 + 1e-6
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Group:
    """Trials of one scenario: ``n_trials`` of ``duration_s`` with scripted cues."""

    scenario: str
    n_trials: int
    duration_s: float
    cue_times: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # "run" or "report"
    config: str           # INI file in this directory
    rate_hz: float
    groups: tuple[Group, ...]
    # Listed in BENCHMARK.json.  report_200hz is not: its set-up (a full
    # 200 Hz run, repeated for the set-up median) does not fit the time budget
    # per run at a run length that keeps wall_s steady, and
    # linear_200hz already exercises every layer it reaches.
    gated: bool = True


_GROUPS_200HZ = (Group("driven", 2, 120.0, (8.0, 40.0, 90.0)),
                 Group("null", 2, 120.0, ()))

WORKLOADS = {w.name: w for w in (
    # At this size (fits of 400 and 1000 steps) per-step fit changes move
    # wall_s more than process-level parallelism across the four fits can.
    Workload("mlp_10hz",
             "cueflow run, mlp_gaussian at 10 Hz, 2 driven + 2 longer null "
             "trials: fitting is ~60% of wall time, CLI start-up most of the "
             "rest; sized for per-step fit changes more than parallel fits",
             "run", "mlp_10hz.ini", 10.0,
             (Group("driven", 2, 20.0, (8.0,)), Group("null", 2, 60.0, ()))),
    Workload("linear_200hz",
             "cueflow run, var_linear at 200 Hz, both directions, grid: "
             "start-up ~1/3 of wall time, TE-trace writes ~1/4, trace rereads, "
             "CSV loads and the Holt loop ~1/8 each; fitting ~3%",
             "run", "linear_200hz.ini", 200.0, _GROUPS_200HZ),
    Workload("report_200hz",
             "cueflow report --trials over a linear_200hz run directory: "
             "reads the trace format back with no fit or detection, and CLI "
             "start-up is its largest share",
             "report", "linear_200hz.ini", 200.0, _GROUPS_200HZ, gated=False),
)}

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("rows_per_s", "rows/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("output_mb", "MB", "lower", 0.1),
    ("cue_hit_rate", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better)
PER_LAYER = (
    ("cli.startup_s", "s", "lower"),
    ("storage.load_trial_dir.s", "s", "lower"),
    ("storage.write_te_csv.s", "s", "lower"),
    ("storage.write_te_csv.calls", "count", "lower"),
    ("storage.write_te_csv.bytes_per_row", "B/row", "lower"),
    ("storage.read_te_csv.s", "s", "lower"),
    ("storage.read_te_csv.calls", "count", "lower"),
    ("timeseries.load_csv.s", "s", "lower"),
    ("timeseries.resample.s", "s", "lower"),
    ("timeseries.resample.calls_per_trial", "count", "lower"),
    ("embedding.embed.s", "s", "lower"),
    ("embedding.embed.calls", "count", "lower"),
    ("models.fit.s", "s", "lower"),
    ("models.fit.calls", "count", "lower"),
    ("models.fit.max_call_s", "s", "lower"),
    ("models.fit.steps", "count", "lower"),
    ("models.fit.ms_per_step", "ms", "lower"),
    ("models.predict_dataset.s", "s", "lower"),
    ("te.local_te.s", "s", "lower"),
    ("detector.detect_trace.s", "s", "lower"),
    ("detector.events", "count", "lower"),
    ("detector.single_sample_frac", "ratio", "lower"),
    ("detector.event_precision", "ratio", "higher"),
    ("detector.null_events_per_min", "1/min", "lower"),
    ("aggregate.s", "s", "lower"),
    ("pipeline.fit_models.s", "s", "lower"),
    ("pipeline.run.s", "s", "lower"),
    ("pipeline.run.self_s", "s", "lower"),
    ("pipeline.write_run_dir.s", "s", "lower"),
    ("pipeline.build_reports.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def reference_s() -> float:
    """Time one pass of a fixed task in the mix the program spends its time
    on: small BLAS products, float formatting and parsing, a scalar loop."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((1000, 64)), rng.standard_normal((64, 64)) / 8
    for _ in range(60):
        a = np.tanh(a @ w)
    text = "\n".join(repr(x) for x in rng.standard_normal(30000).tolist())
    sum(float(x) for x in text.split())
    level = 0.0
    for v in range(150000):
        level += 0.01 * (v - level)
    return time.perf_counter() - start




# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    trial_dir: Path
    rows: int
    bytes: int
    n_trials: int
    cues: dict[str, tuple[float, ...]]   # trial id -> scripted cue times


def generate_trials(wl: Workload, seed: int, trial_dir: Path) -> Inputs:
    """Write the workload's trial CSVs; the same seed gives the same files."""
    import numpy as np

    from cueflow import storage, synth
    from cueflow.timeseries import TimeSeries, Trial, TrialSet

    trials, cues = [], {}
    k = 0
    for g in wl.groups:
        for i in range(g.n_trials):
            scen = synth.CueScenario(
                duration_s=g.duration_s, cue_times=g.cue_times,
                response_delay_s=0.05, amplitude=1.5 if g.cue_times else 0.0,
                noise_sigma=0.2, seed=seed * 1000 + k, rate_hz=wl.rate_hz)
            k += 1
            leader, follower, _ = synth.gen_cue_scenario(scen)
            # Integrated follower position, as `cueflow synth` writes it.
            pos = np.cumsum(follower.data, axis=0) * leader.dt
            series = TimeSeries(
                channels=(*leader.channels, *follower.channels,
                          "follower_px", "follower_py"),
                data=np.hstack([leader.data, follower.data, pos]), dt=leader.dt)
            trial_id = f"{g.scenario[0]}{i:03d}"
            trials.append(Trial(trial_id=trial_id, scenario=g.scenario, series=series))
            cues[trial_id] = g.cue_times
    storage.write_trial_dir(TrialSet(trials=tuple(trials)), trial_dir)
    return Inputs(trial_dir=trial_dir,
                  rows=sum(t.series.n_samples for t in trials),
                  bytes=sum(f.stat().st_size for f in trial_dir.glob("*.csv")),
                  n_trials=len(trials), cues=cues)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tree_rss_mb(root_pid: int) -> float:
    """Resident memory summed over ``root_pid`` and its live descendants.

    Reads ``/proc/*/stat`` (parent pid and resident pages); pages shared
    between processes count once per process, as in ``ru_maxrss``.
    """
    parent, rss = {}, {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:   # exited meanwhile
            continue
        pid = int(entry.name)
        parent[pid], rss[pid] = int(fields[1]), int(fields[21])
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        total += rss.get(pid, 0)
        todo += [p for p, pp in parent.items() if pp == pid]
    return total * os.sysconf("SC_PAGE_SIZE") / 2**20


class TreeRssSampler(threading.Thread):
    """Peak of :func:`tree_rss_mb` sampled every ``RSS_SAMPLE_S`` until stopped.

    ``ru_maxrss`` from ``wait4`` is the peak of the largest single process;
    this sum catches memory spread over worker processes.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.peak_mb = pid, 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(RSS_SAMPLE_S):
            self.peak_mb = max(self.peak_mb, tree_rss_mb(self.pid))

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return self.peak_mb


def spawn(argv: list[str], env: dict[str, str], logs: Path) -> Child:
    """Run one child to completion; wall time is spawn to exit.

    Peak memory is the larger of the exact single-process peak (``wait4``)
    and the sampled peak of the whole process tree's summed RSS.
    """
    out_log, err_log = logs / "stdout.txt", logs / "stderr.txt"
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_log), wr, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_log), wr, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    timer.start()
    sampler = TreeRssSampler(pid)
    sampler.start()
    try:
        # Wait for the exit but leave the child unreaped, so that its pid
        # cannot be reused while the sampler or the timer still hold it.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        tree_peak_mb = sampler.stop()
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        sampler.stop()
    return Child(code=os.waitstatus_to_exitcode(status), wall_s=wall,
                 # Linux reports ru_maxrss in KiB.
                 peak_rss_mb=max(usage.ru_maxrss / 1024.0, tree_peak_mb),
                 stdout=out_log.read_text(errors="replace"),
                 stderr=err_log.read_text(errors="replace"))


def cli_argv(cli_args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cueflow.cli", *cli_args]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Output checks and scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """Files one invocation must write, derived from the workload config."""

    directions: tuple[str, ...]
    aggregates: tuple[str, ...]        # histogram/grid files, sidecars, report
    n_aggregate_products: int          # what `report` counts in its stdout


def expected_files(cfg) -> Expected:
    aggregates, products = [], 0
    for d in cfg.io.direction_list:
        if cfg.aggregate.bin_dt is not None:
            aggregates += [f"histogram_{d}.csv", f"histogram_{d}.csv.meta"]
            products += 1
        if cfg.aggregate.cell_size_m is not None and cfg.aggregate.position_channels:
            aggregates += [f"grid_{d}.csv", f"grid_{d}.csv.meta"]
            products += 1
    # Every workload has two scenarios with at least two trials each.
    aggregates.append("peak_te_report.csv")
    return Expected(directions=cfg.io.direction_list, aggregates=tuple(aggregates),
                    n_aggregate_products=products + 1)


def file_hashes(out_dir: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def read_events(run_dir: Path) -> list[tuple[str, str, float, float]]:
    with open(run_dir / "events.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(r[0], r[1], float(r[2]), float(r[3])) for r in rows if r]


def check_invocation(wl: Workload, inputs: Inputs, exp: Expected, child: Child,
                     out_dir: Path) -> tuple[list[str], dict[str, str]]:
    """Problems found in one invocation, and the hashes of its checked files."""
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if "Traceback" in child.stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems, {}
    hashed = list(exp.aggregates)
    if wl.command == "run":
        hashed.append("events.csv")
        per_trial = [f"te_{tid}_{d}.csv" for tid in inputs.cues for d in exp.directions]
        missing = [n for n in [*hashed, "manifest.csv", *per_trial]
                   if not (out_dir / n).is_file()]
    else:
        missing = [n for n in hashed if not (out_dir / n).is_file()]
    if missing:
        return [f"missing outputs {missing[:5]}"], {}
    if wl.command == "run":
        n_events = len(read_events(out_dir))
        want = f"analyzed {inputs.n_trials} trials; {n_events} cue events -> {out_dir}"
    else:
        want = f"wrote {exp.n_aggregate_products} aggregate file(s) -> {out_dir}"
    if child.stdout.strip() != want:
        problems.append(f"stdout {child.stdout.strip()!r}, expected {want!r}")
    return problems, file_hashes(out_dir, hashed)


@dataclass
class Score:
    cues: int
    hits: int
    driven_events: int
    useful_events: int
    null_events: int
    null_minutes: float


def score(run_dir: Path, inputs: Inputs) -> Score:
    """Criterion-5 scoring of a run directory's src2tgt events."""
    with open(run_dir / "manifest.csv", newline="") as fh:
        manifest = {r[0]: (r[1], float(r[3])) for r in list(csv.reader(fh))[1:] if r}
    events: dict[str, list[float]] = {}
    for trial, direction, start, _ in read_events(run_dir):
        if direction == "src2tgt":
            events.setdefault(trial, []).append(start)
    s = Score(0, 0, 0, 0, 0, 0.0)
    for trial, cue_times in inputs.cues.items():
        starts = events.get(trial, [])
        if cue_times:
            s.cues += len(cue_times)
            s.hits += sum(any(abs(t - c) <= HIT_TOL_S for t in starts) for c in cue_times)
            s.driven_events += len(starts)
            s.useful_events += sum(any(abs(t - c) <= HIT_TOL_S for c in cue_times)
                                   for t in starts)
        else:
            s.null_events += len(starts)
            s.null_minutes += manifest[trial][1] / 60.0
    return s


# ---------------------------------------------------------------------------
# Per-layer split from a traced run
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(trace: dict, n_trials: int, sc: Score) -> dict[str, float | None]:
    """Per-layer values from the tracer's spans.

    Every listed layer is reached by every workload in BENCHMARK.json
    (``models.fit`` is ``fit_mlp`` or ``fit_var``, whichever the config
    picks; a VAR fit counts as one step).  A layer whose name is gone from
    the program is None (missing) rather than 0, and so is a ratio over
    nothing.
    """
    spans = trace["spans"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in of(name)) or None

    def calls(name):
        return len(of(name)) or None

    def total(name, key):
        return sum(s[key] for s in of(name)) if of(name) else None

    def ratio(num, den):
        return None if num is None or not den else num / den

    out: dict[str, float | None] = {}
    for name in ("storage.load_trial_dir", "storage.write_te_csv", "storage.read_te_csv",
                 "timeseries.load_csv", "timeseries.resample", "embedding.embed",
                 "models.fit", "models.predict_dataset",
                 "te.local_te", "detector.detect_trace", "pipeline.fit_models",
                 "pipeline.run", "pipeline.write_run_dir", "pipeline.build_reports"):
        out[name + ".s"] = busy(name)
    for name in ("storage.write_te_csv", "storage.read_te_csv", "embedding.embed",
                 "models.fit"):
        out[name + ".calls"] = calls(name)

    out["storage.write_te_csv.bytes_per_row"] = ratio(
        total("storage.write_te_csv", "bytes"), total("storage.write_te_csv", "rows"))
    out["timeseries.resample.calls_per_trial"] = ratio(
        calls("timeseries.resample"), n_trials)

    fits = of("models.fit")
    steps = total("models.fit", "n_iter")
    out["models.fit.max_call_s"] = (
        max(s["end"] - s["start"] for s in fits) if fits else None)
    out["models.fit.steps"] = steps
    out["models.fit.ms_per_step"] = ratio(
        None if steps is None else 1000.0 * out["models.fit.s"], steps)

    n_events = total("detector.detect_trace", "events")
    out["detector.events"] = n_events
    out["detector.single_sample_frac"] = ratio(
        total("detector.detect_trace", "single_sample"), n_events)
    out["detector.event_precision"] = ratio(sc.useful_events, sc.driven_events)
    out["detector.null_events_per_min"] = ratio(sc.null_events, sc.null_minutes)

    agg = [busy(n) for n in ("aggregate.temporal_histogram", "aggregate.spatial_grid",
                             "aggregate.peak_te_study")]
    out["aggregate.s"] = None if agg == [None] * 3 else sum(a or 0.0 for a in agg)

    if not of("pipeline.run"):
        out["pipeline.run.self_s"] = None
    else:
        self_s = 0.0
        for idx, s in enumerate(spans):
            if s["name"] == "pipeline.run":
                kids = [(c["start"], c["end"]) for c in spans if c["parent"] == idx]
                self_s += (s["end"] - s["start"]) - _union_length(kids)
        out["pipeline.run.self_s"] = self_s
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> str:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
    text = f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}"
    if n >= 11:
        ordered = sorted(values)
        text += f"  p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"
    else:
        text += "  tail: n<11"
    return text


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, seed: int, inputs: Inputs) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
        "git_commit": git_commit(root),
        "seed": seed,
        "input_rows": inputs.rows,
        "input_bytes": inputs.bytes,
        "input_trials": inputs.n_trials,
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def set_up(wl: Workload, seed: int, cfg_path: Path, base: Path, env) -> tuple[Inputs, Path | None]:
    """Generate inputs; for a report workload also write the run it reads."""
    base.mkdir(parents=True)
    inputs = generate_trials(wl, seed, base / "trials")
    if wl.command != "report":
        return inputs, None
    run_dir = base / "run"
    child = spawn(cli_argv(["run", "--config", str(cfg_path), "--trials",
                            str(inputs.trial_dir), "--out", str(run_dir)]), env, base)
    if child.code != 0:
        raise BenchError(f"set-up run failed with exit code {child.code}:\n"
                         f"{child.stderr[-2000:]}")
    return inputs, run_dir


def command_args(wl: Workload, cfg_path: Path, inputs: Inputs, run_dir: Path | None,
                 out_dir: Path) -> list[str]:
    if wl.command == "run":
        return ["run", "--config", str(cfg_path), "--trials", str(inputs.trial_dir),
                "--out", str(out_dir)]
    return ["report", "--config", str(cfg_path), "--events", str(run_dir),
            "--trials", str(inputs.trial_dir), "--out", str(out_dir)]


def bench(wl: Workload, seed: int, seconds: float, traced: bool, root: Path,
          work: Path) -> dict:
    from cueflow.config import load_config

    cfg_path = HERE / wl.config
    cfg, _ = load_config(cfg_path)
    exp = expected_files(cfg)
    env = child_env(root)

    # Untimed warm-up: byte-compiles the package and fills the file cache.
    warm = spawn(cli_argv(["validate", "--config", str(cfg_path)]), env, work)
    if warm.code != 0:
        raise BenchError(f"warm-up validate failed:\n{warm.stderr[-2000:]}")

    reference_s()   # untimed: first-call costs
    refs = [reference_s()]
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": []}

    def record(kind: str, seconds: float | None) -> None:
        """Follow one timed item with a reference pass; None drops its time."""
        refs.append(reference_s())
        if seconds is not None:
            raw[kind].append(seconds)

    def timed_set_up(base: Path):
        start = time.perf_counter()
        result = set_up(wl, seed, cfg_path, base, env)
        record("setup_s", time.perf_counter() - start)
        return result

    for i in range(SETUP_REPEATS):
        inputs, run_dir = timed_set_up(work / f"setup{i}")
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(work / f"setup{i}")

    reference: dict[str, str] | None = None
    if run_dir is not None:
        reference = file_hashes(run_dir, exp.aggregates)
    scored_dir = run_dir

    rss, out_mb = [], []
    attempted = failed = 0
    problems_seen: list[str] = []

    def invoke(argv_for, out_dir: Path) -> Child | None:
        nonlocal attempted, failed, reference, scored_dir
        attempted += 1
        logs = work / f"logs{attempted}"
        logs.mkdir()
        child = spawn(argv_for(out_dir), env, logs)
        problems, hashes = check_invocation(wl, inputs, exp, child, out_dir)
        if not problems:
            if reference is None:
                reference, scored_dir = hashes, out_dir
            elif hashes != reference:
                diff = sorted(k for k in reference if hashes.get(k) != reference[k])
                problems.append(f"outputs differ from the reference: {diff}")
        if problems:
            failed += 1
            problems_seen.append(f"invocation {attempted}: " + "; ".join(problems))
            return None
        return child

    def timed_args(out_dir):
        return cli_argv(command_args(wl, cfg_path, inputs, run_dir, out_dir))

    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        out_dir = work / f"out{attempted + 1}"
        child = invoke(timed_args, out_dir)
        record("wall_s", None if child is None else child.wall_s)
        if child is not None:
            rss.append(child.peak_rss_mb)
            out_mb.append(dir_bytes(out_dir) / 1e6)
        if out_dir != scored_dir and out_dir.exists():
            shutil.rmtree(out_dir)
        loop_s = time.perf_counter() - start
        if sum(raw["setup_s"][SETUP_REPEATS:]) < SETUP_SHARE * loop_s:
            timed_set_up(work / "resetup")
            shutil.rmtree(work / "resetup")

    sc = score(scored_dir, inputs) if scored_dir is not None else None
    # Seconds of the nominal host per second of this run's host.
    host_scale = REF_NOMINAL_S / statistics.mean(refs)
    wall_s = statistics.median(raw["wall_s"]) * host_scale if raw["wall_s"] else None
    e2e = {
        "wall_s": wall_s,
        "rows_per_s": inputs.rows / wall_s if wall_s else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "output_mb": statistics.median(out_mb) if out_mb else None,
        "cue_hit_rate": sc.hits / sc.cues if sc and sc.cues else None,
        "setup_s": statistics.median(raw["setup_s"]) * host_scale,
    }

    print(f"workload {wl.name}: seed {seed}, {inputs.n_trials} trials, "
          f"{inputs.rows} input rows, {inputs.bytes} input bytes")
    print("env " + json.dumps(environment(root, seed, inputs), sort_keys=True))
    print("samples " + json.dumps({**raw, "reference_s": refs, "peak_rss_mb": rss}))
    print(f"{'raw wall_s':<36} {summary(raw['wall_s'])} s")
    print(f"{'peak_rss_mb':<36} {summary(rss)} MB")
    print(f"{'raw setup_s':<36} {summary(raw['setup_s'])} s")
    print(f"{'reference_s':<36} {summary(refs)}  mean {statistics.mean(refs):.6g} s "
          f"(nominal {REF_NOMINAL_S}; times below scaled by {host_scale:.6g})")
    if sc is not None:
        print("score " + json.dumps(vars(sc)))
        print(f"cue hits {sc.hits}/{sc.cues}; null src2tgt events {sc.null_events} "
              f"in {sc.null_minutes:.6g} min; driven src2tgt events "
              f"{sc.driven_events}, {sc.useful_events} at a cue")
    print(f"failed_frac {failed}/{attempted}")
    for p in problems_seen:
        print("FAILED " + p)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    print("end-to-end (times scaled to the nominal host):")
    for name, value in e2e.items():
        print(f"  {name:<34} {_fmt(value)} {units[name]}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    if traced:
        startup = [spawn(cli_argv(["validate", "--config", str(cfg_path)]), env, work).wall_s
                   for _ in range(STARTUP_REPEATS)]
        spans_path = work / "spans.json"

        def traced_args(out_dir):
            return [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
                    *command_args(wl, cfg_path, inputs, run_dir, out_dir)]

        # Untraced invocations just before and after the traced one give
        # trace.overhead_s; it is a one-sample difference, so host noise of
        # a few percent of wall_s shows in it.
        neighbours = [invoke(timed_args, work / "before")]
        child = invoke(traced_args, work / "traced")
        neighbours.append(invoke(timed_args, work / "after"))
        if child is None or sc is None:
            layers = {name: None for name, _, _ in PER_LAYER}
        else:
            trace = json.loads(spans_path.read_text())
            if trace["missing"]:
                print("names no longer in the program: " + ", ".join(trace["missing"]))
            layers = layer_metrics(trace, inputs.n_trials, sc)
            layers["trace.wall_s"] = child.wall_s
            if None not in neighbours:
                layers["trace.overhead_s"] = child.wall_s - statistics.mean(
                    n.wall_s for n in neighbours)
        layers["cli.startup_s"] = statistics.median(startup)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print("per-layer (traced run; .s is busy time summed over threads):")
        for name, _, _ in PER_LAYER:
            print(f"  {name:<34} {_fmt(layers.get(name))} {units[name]}")
        metrics = {name: {"value": layers.get(name), "unit": unit}
                   for name, unit, _ in PER_LAYER}

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "cueflow" / "cli.py").is_file():
        print(f"perfbench: no cueflow sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
