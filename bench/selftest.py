"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced on small inputs (the viscous one keeps
its full size, see TINY) and checks that each end-to-end and per-layer metric
named in BENCHMARK.json is emitted with its unit, that the layers a workload
drives report work, and that a corrupted stage output is counted as a failed
stage instead of passing.  Exits 0 when
every check holds.  Takes one to two minutes.
"""

import json
import sys

import run

TINY = {
    "shock-text": {"nx": 257, "nt": 129, "count": 3},
    # coarser viscous grids blow up or miss the dissipation gate, and fewer
    # ladder centers can leave the verdict inconclusive: keep the full size
    "viscous-readme": run.WORKLOADS["viscous-readme"][1],
    "verify-2d-scan": {"nx": 33, "nt": 33, "count": 3, "centers": 2},
}

COMMON = ["weak_balance.holder_cylinder_bound", "fields.GriddedField.speed",
          "fields.GriddedField.spatial_mesh", "fields.GriddedField.spatial_weights",
          "cutoffs.SpatialBump.value", "cutoffs.SpatialBump.gradient",
          "cutoffs.SpatialBump.laplacian", "cutoffs.TimeBump.value",
          "cutoffs.TimeBump.deriv", "io.read_field", "cli.verify"]
MEASURE = ["io.write_field", "io.write_measure", "io.read_measure",
           "aniso_measure.density_ladder", "aniso_measure.box_counting_dimension",
           "aniso_measure.certify_lower_bound", "cli.dimension"]
USES = {
    "shock-text": COMMON + MEASURE + ["fixtures.burgers_entropy_solution", "cli.burgers"],
    "viscous-readme": COMMON + MEASURE + ["fixtures.viscous_burgers_run", "cli.vfield",
                                          "fields.GriddedField.grad_squared"],
    "verify-2d-scan": COMMON + ["fields.GriddedField.grad_squared"],
}


def check(ok: bool, message: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json names exactly the harness workloads", problems)
    check(units(spec["end_to_end"]) == run.END_TO_END,
          "end-to-end names and units match BENCHMARK.json", problems)
    check(units(spec["per_layer"]) == run.spans.per_layer_units(),
          "per-layer names and units match BENCHMARK.json", problems)

    for workload, params in TINY.items():
        _, plain = run.run(workload, 1, 0.0, False, params=params)
        check(plain["correct"] and plain["failed"] == 0,
              f"{workload}: every stage passes its gate", problems)
        check(set(plain["metrics"]) == set(run.END_TO_END)
              and all(m["value"] > 0 for m in plain["metrics"].values()),
              f"{workload}: every end-to-end metric emitted and nonzero", problems)
        _, traced = run.run(workload, 1, 0.0, True, params=params)
        layers = traced["metrics"]
        check(traced["correct"] and list(layers) == list(run.spans.per_layer_units()),
              f"{workload}: every per-layer metric emitted", problems)
        idle = [name for name in USES[workload]
                if not (layers[f"{name}.calls"]["value"] > 0
                        and layers[f"{name}.busy_s"]["value"] > 0)]
        check(not idle, f"{workload}: layers it drives report calls and time {idle}",
              problems)

    def truncate_measure(stage, work, stage_id):
        if stage.command == "burgers":
            path = work / "shock.measure"
            path.write_bytes(path.read_bytes()[:200])

    details, result = run.run("shock-text", 1, 0.0, False, params=TINY["shock-text"],
                              corrupt=truncate_measure)
    failed = [s["command"] for s in details["passes"][0]["stages"] if s["failures"]]
    check(not result["correct"] and failed == ["dimension"]
          and details["failed_frac"] == 1 / 3,
          f"truncated measure file fails the dimension stage (failed: {failed})", problems)

    def unbound_report(stage, work, stage_id):
        path = work / f"{stage_id}.out"
        path.write_text(path.read_text().replace('"all_bounded": true',
                                                 '"all_bounded": false'))

    details, result = run.run("verify-2d-scan", 1, 0.0, False,
                              params=TINY["verify-2d-scan"], corrupt=unbound_report)
    check(not result["correct"] and result["failed"] == result["attempted"] > 0,
          "a report with all_bounded=false fails its gate", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
