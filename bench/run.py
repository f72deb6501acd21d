"""Pipeline benchmark for dissdim: README-shaped CLI pipelines, gated and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pipeline stage is its own
process, started one after another from this one, exactly as a README user
runs it: ``python3 -m dissdim.cli COMMAND ...`` with ``PYTHONPATH=src``.
With ``--trace 1`` the stages run through ``bench/stage.py`` instead, which
puts spans around dissdim's layers from outside the package.

A run first prepares the workload's inputs (several times, reporting the
median as ``setup_s``), then repeats whole pipeline passes until the passes
add up to ``--seconds`` and number at least ``MIN_PASSES``.  Every stage of
every pass is gated: it fails if it exits nonzero or if its JSON report
breaks the workload's expected values.
``attempted`` counts stages run and ``failed`` the stages that failed.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced pass and then traced passes, and reports the
per-layer metrics (medians over traced passes) plus the tracing overhead.
The last stdout line is the result object; the line before it holds the
details: seed, environment, per-stage exit codes, gate failures and the
sha256 of every stage's stdout and CSV (recorded, not gated).  Spans are
written to ``.bench_runs/<workload>-seed<N>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5
# A pass takes 7-19 s on a 2-core host, so two passes keep one run under a
# minute while the reported wall time is still a median of several samples.
MIN_PASSES = 2

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Stage:
    """One CLI call; ``gate`` maps its JSON report to a list of failure reasons."""

    command: str
    args: list
    gate: Callable[[dict], list]
    csv: str | None = None


@dataclass
class Plan:
    stages: list
    inputs: list = field(default_factory=list)   # bench/inputs.py calls made in set-up
    check: list | None = None                     # bench/inputs.py call gating stage 0 once


def _want(report: dict, **expected) -> list:
    return [f"{key}={report.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if report.get(key) != value]


def _near(report: dict, key: str, expected: float, rel: float) -> list:
    got = report.get(key)
    if isinstance(got, (int, float)) and abs(got - expected) <= rel * abs(expected):
        return []
    return [f"{key}={got!r}, expected {expected!r} within {rel:g} relative"]


# ---------------------------------------------------------------------------
# Workloads.  FULL holds the sizes the benchmark measures; the self-test
# passes smaller ones.
# ---------------------------------------------------------------------------

def shock_text(p: dict, seed: int) -> Plan:
    """README shock pipeline with text bodies: io parses ~61 MB of CSV per pass."""
    ladder = ["--delta-max", "0.125", "--count", str(p["count"])]
    counts = [8 * 2 ** k for k in range(p["count"])]   # one cell per 1/delta on the shock
    return Plan(
        stages=[
            Stage("burgers", ["--ul", "1", "--ur", "-1", "--nx", str(p["nx"]),
                              "--nt", str(p["nt"]), "--text", "--field-out", "shock.field",
                              "--measure-out", "shock.measure"],
                  lambda r: _want(r, shock=True, measure_atoms=2048)
                  + _near(r, "measure_mass", 8 / 12, 1e-12)),
            Stage("dimension", ["--input", "shock.measure", "--alpha", "1", *ladder,
                                "--csv", "ladder.csv"],
                  lambda r: _want(r, counts=counts) + _near(r, "dim_estimate", 1.0, 1e-6),
                  csv="ladder.csv"),
            Stage("verify", ["--input", "shock.field", "--q", "inf", "--r", "inf",
                             "--alpha", "1", "--pair", "burgers", "--center", "0.0:0.5",
                             *ladder, "--csv", "sweep.csv"],
                  lambda r: _want(r, rows=p["count"], skipped=0, all_bounded=True),
                  csv="sweep.csv"),
        ],
        check=["shock-roundtrip", "shock.field", str(p["nx"]), str(p["nt"])],
    )


def viscous_readme(p: dict, seed: int) -> Plan:
    """README vfield run, then dimension and verify on its outputs."""
    total = 2 ** 3 / 12 * p["T"]   # (u_l - u_r)^3 / 12 * T
    return Plan(stages=[
        Stage("vfield", ["--nu", "1e-3", "--ul", "1", "--ur", "-1", "--a", "-0.03",
                         "--b", "0.03", "--nx", str(p["nx"]), "--T", repr(p["T"]),
                         "--nt", str(p["nt"]), "--initial", "viscous_profile",
                         "--field-out", "v.field", "--measure-out", "v.measure"],
              lambda r: _near(r, "total_dissipation", total, 0.02)),
        Stage("dimension", ["--input", "v.measure", "--sample-centers",
                            str(p["sample_centers"]), "--seed", str(seed % 2 ** 32),
                            "--csv", "ladder.csv"],
              lambda r: _want(r, n_atoms=p["nx"] * p["nt"], verdict="certified"),
              csv="ladder.csv"),
        Stage("verify", ["--input", "v.field", "--alpha", "2", "--nu", "1e-3",
                         "--pair", "burgers", "--center", f"0.0:{p['T'] / 2!r}",
                         "--delta-max", "0.0075", "--csv", "sweep.csv"],
              lambda r: _want(r, rows=6, skipped=0, all_bounded=True), csv="sweep.csv"),
    ])


def verify_2d_scan(p: dict, seed: int) -> Plan:
    """One 2D viscous verify over seed-drawn centers whose every scale fits the grid."""
    delta_max = 0.125
    # the 2*delta collar must stay 2 cells inside [0, 1] in space and in time
    lo = 2 * delta_max + 2 / (min(p["nx"], p["nt"]) - 1) + 0.01
    rng = random.Random(seed)
    centers = []
    for _ in range(p["centers"]):
        x, y, t = (rng.uniform(lo, 1 - lo) for _ in range(3))
        centers += ["--center", f"{x:.4f},{y:.4f}:{t:.4f}"]
    rows = p["count"] * p["centers"]
    return Plan(
        inputs=[["shear2d", "shear.field", str(p["nx"]), str(p["nt"])]],
        stages=[Stage("verify", ["--input", "shear.field", "--nu", "1e-2",
                                 "--delta-max", repr(delta_max), "--count", str(p["count"]),
                                 *centers, "--csv", "sweep.csv"],
                      lambda r: _want(r, rows=rows, skipped=0, all_bounded=True),
                      csv="sweep.csv")],
    )


WORKLOADS = {
    "shock-text": (shock_text, {"nx": 2049, "nt": 1025, "count": 6}),
    "viscous-readme": (viscous_readme, {"nx": 1201, "T": 0.5, "nt": 201,
                                        "sample_centers": 128}),
    "verify-2d-scan": (verify_2d_scan, {"nx": 129, "nt": 129, "count": 5, "centers": 5}),
}


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------

def stage_env() -> dict:
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                  else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_input(argv: list, work: Path, env: dict) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "inputs.py"), *argv], cwd=work,
                          env=env, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"inputs.py {' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def run_stage(stage: Stage, work: Path, env: dict, stage_id: str, traced: bool) -> dict:
    """Spawn one stage and wait for it; wall time from spawn to exit, peak RSS from wait4."""
    if traced:
        argv = [sys.executable, str(BENCH / "stage.py"), f"{stage_id}.spans", stage_id]
    else:
        argv = [sys.executable, "-m", "dissdim.cli"]
    argv += [stage.command, *stage.args]
    with open(work / f"{stage_id}.out", "wb") as out, open(work / f"{stage_id}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"id": stage_id, "command": stage.command, "exit": proc.returncode,
            "start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def gate_stage(stage: Stage, result: dict, work: Path) -> dict:
    stdout = (work / f"{result['id']}.out").read_bytes()
    failures = []
    if result["exit"] != 0:
        tail = (work / f"{result['id']}.err").read_text(errors="replace")[-400:]
        failures.append(f"exit code {result['exit']}: {stdout[-400:]!r} {tail}")
    else:
        try:
            failures += stage.gate(json.loads(stdout))
        except ValueError as exc:
            failures.append(f"stdout is not a JSON report: {exc}")
    csv = work / stage.csv if stage.csv else None
    return {
        "command": result["command"], "exit": result["exit"],
        "wall_s": result["end"] - result["start"], "cpu_s": result["cpu_s"],
        "rss_mb": result["rss_mb"],
        "failures": failures,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()
        if csv is not None and csv.exists() else None,
    }


def run_pass(plan: Plan, work: Path, env: dict, tag: str, traced: bool,
             corrupt: Callable | None = None) -> tuple:
    """One full pipeline pass; returns (pass summary, spans of its stages)."""
    results = []
    for i, stage in enumerate(plan.stages):
        results.append(run_stage(stage, work, env, f"{tag}.{i}.{stage.command}", traced))
        if corrupt is not None:
            corrupt(stage, work, results[-1]["id"])
    summary = {"traced": traced,
               "wall_s": results[-1]["end"] - results[0]["start"],
               "peak_rss_mb": max(r["rss_mb"] for r in results),
               "stages": [gate_stage(s, r, work) for s, r in zip(plan.stages, results)]}
    recorded = []
    if traced:
        startup = 0.0
        for r in results:
            path = work / f"{r['id']}.spans"
            stage_spans = ([json.loads(line) for line in path.read_text().splitlines()]
                           if path.exists() else [])
            main = [s for s in stage_spans if s["name"] == "cli.main"]
            startup += (r["end"] - r["start"]) - sum(s["end"] - s["start"] for s in main)
            recorded += stage_spans
        summary["startup_s"] = startup
    return summary, recorded


def setup(plan: Plan, work: Path, env: dict) -> tuple:
    """Prepare the work dir and inputs SETUP_REPEATS times; the last copy is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        start = time.perf_counter()
        work.mkdir(parents=True)
        info = run_input(["env"], work, env)
        for argv in plan.inputs:
            run_input(argv, work, env)
        times.append(time.perf_counter() - start)
    return times, info


# ---------------------------------------------------------------------------
# Running a workload.
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None, corrupt: Callable | None = None) -> tuple:
    """Run one workload; returns (details, result) as printed by ``main``."""
    build, full = WORKLOADS[workload]
    plan = build(params or full, seed)
    env = stage_env()
    work = RUNS / f"{workload}-seed{seed}-{os.getpid()}"
    passes, all_spans, layers = [], [], []
    try:
        setup_times, info = setup(plan, work, env)
        source = ROOT / "src" / "dissdim"
        if Path(info["dissdim"]).parent != source.resolve():
            raise RuntimeError(f"stages import dissdim from {info['dissdim']}, not {source}")
        measured = 0.0
        # MIN_PASSES >= 2 also gives a traced run a traced pass after its untraced one
        while measured < seconds or len(passes) < MIN_PASSES:
            traced = trace and bool(passes)
            summary, recorded = run_pass(plan, work, env, f"p{len(passes)}", traced, corrupt)
            if plan.check is not None and not passes:
                if not run_input(plan.check, work, env).get("equal"):
                    summary["stages"][0]["failures"].append(
                        f"{plan.check[0]}: field read back differs from the exact solution")
            measured += summary["wall_s"]
            passes.append(summary)
            all_spans += recorded
            if traced:
                layers.append(dict(spans.layer_metrics(recorded),
                                   **{"cli.startup_s": summary.pop("startup_s")}))
    finally:
        if work.exists():
            shutil.rmtree(work)

    stages = [s for p in passes for s in p["stages"]]
    failed = sum(1 for s in stages if s["failures"])
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        for values, wall in zip(layers, traced_walls):
            values["trace.overhead_s"] = wall - plain[0]["wall_s"]
        metrics = {name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
                   for name, unit in spans.per_layer_units().items()}
        RUNS.mkdir(exist_ok=True)
        spans_file = RUNS / f"{workload}-seed{seed}.spans.jsonl"
        with open(spans_file, "w") as fh:
            for rec in all_spans:
                fh.write(json.dumps(rec) + "\n")
    else:
        spans_file = None
        values = {"wall_s": statistics.median(p["wall_s"] for p in plain),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                  "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    details = {"workload": workload, "seed": seed, "trace": int(trace), "env": info,
               "setup_s": setup_times, "failed_frac": failed / len(stages),
               "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
               "passes": passes}
    result = {"correct": failed == 0, "attempted": len(stages), "failed": failed,
              "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dissdim" / "cli.py").is_file():
        print(f"no dissdim sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
