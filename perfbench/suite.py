"""Run every workload, print every metric and its run-to-run spread.

    python3 perfbench/suite.py [--seeds N] [--write-baseline PATH]

Run it from the root of a source checkout.  For each workload (all of them,
including ``report_200hz``, which BENCHMARK.json does not list) it makes N
untraced runs of ``run.py`` (seeds 1..N) and one traced run (seed 1), each
as a child process of ``RUN_SECONDS``, the run length BENCHMARK.json gives.
For every end-to-end metric it prints the median over seeds, the quartiles,
and the quartile spread as a share of the median next to the metric's bound;
then the raw (unscaled) wall time pooled over every invocation, the cue
scores pooled over seeds, and the traced per-layer split.  It always
rewrites ``BENCHMARK.json`` from the definitions in ``run.py``; with
``--write-baseline`` it also saves the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

RUN_PY = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 400
RUN_SECONDS = 45


def spec() -> dict:
    """The BENCHMARK.json document for the definitions in run.py."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in bench.WORKLOADS.values() if w.gated],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in bench.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in bench.PER_LAYER],
    }


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--write-baseline", default=None, metavar="PATH")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    Path("BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    baseline: dict = {"seeds": args.seeds, "seconds": RUN_SECONDS, "workloads": {}}
    verdict = 0
    for name in bench.WORKLOADS:
        runs, env_line, walls, pooled = [], None, [], {}
        for seed in range(1, args.seeds + 1):
            result, lines = run_once(name, seed, 0)
            runs.append(result)
            tagged = {ln.split(" ", 1)[0]: ln.split(" ", 1)[1] for ln in lines
                      if ln.split(" ", 1)[0] in ("env", "samples", "score")}
            env_line = env_line or tagged.get("env")
            walls += json.loads(tagged.get("samples", "{}")).get("wall_s", [])
            for k, v in json.loads(tagged.get("score", "{}")).items():
                pooled[k] = pooled.get(k, 0) + v
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                if v["value"] is not None), flush=True)
        traced, _ = run_once(name, 1, 1)

        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        print(f"\n== {name}: failed_frac {failed / attempted:.6g} "
              f"({failed}/{attempted}); all correct: "
              f"{all(r['correct'] for r in runs) and traced['correct']}")
        if failed:
            verdict = 1
        summary = {}
        for metric, unit, better, bound in bench.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            if None in values:
                print(f"  {metric:<22} missing in some runs")
                verdict = 1
                continue
            med, q1, q3, rel = spread(values)
            flag = "" if metric == "setup_s" or rel <= bound / 3 else "  SPREAD ABOVE bound/3"
            print(f"  {metric:<22} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {rel:.4f} (bound {bound}, {better} is better){flag}")
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                               "unit": unit, "values": values}
        print(f"  raw wall_s pooled over all invocations: {bench.summary(walls)} s")
        if pooled:
            print(f"  pooled over seeds: cue hits {pooled['hits']}/{pooled['cues']}, "
                  f"null src2tgt events {pooled['null_events']} in "
                  f"{pooled['null_minutes']:.6g} min = "
                  f"{pooled['null_events'] / pooled['null_minutes']:.4g}/min")
        print("  per-layer (traced run, seed 1):")
        for metric, v in traced["metrics"].items():
            value = "missing" if v["value"] is None else f"{v['value']:.6g}"
            print(f"    {metric:<38} {value} {v['unit']}")
        baseline["workloads"][name] = {
            "env": json.loads(env_line) if env_line else None,
            "failed_frac": failed / attempted,
            "wall_s_samples": walls,
            "pooled_score": pooled,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=2) + "\n")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
