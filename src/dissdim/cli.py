"""Command-line frontend: reproducible CSV/JSON pipelines over the library.

Subcommands:

* ``exponents`` -- closed-form scaling exponents as JSON on stdout.
* ``dimension`` -- box-counting and density-ladder reports for a measure file.
* ``verify``    -- cylinder sweeps of weak masses against their explicit bounds.
* ``burgers``   -- write an exact Riemann entropy solution and its dissipation measure.
* ``vfield``    -- run the viscous solver and write field/measure/manifest.

Exit codes: 0 success, 2 validation rejection, 3 numerical failure or failed
runtime check (each failure with a machine-readable error object on stdout).
Identical configuration and inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exponents as ex
from . import io as dio
from .aniso_measure import (SpaceTimePoint, box_counting_dimension, certify_lower_bound,
                            density_ladder)
from .cutoffs import CutoffPair
from .errors import VerificationError
from .fixtures import (NumericalError, RiemannDatum, burgers_dissipation_measure,
                       burgers_entropy_solution, viscous_burgers_run)
from .weak_balance import (BURGERS_PAIR, MarginError, holder_cylinder_bound)

SCHEMA = "dissdim/1"


class CliError(ValueError):
    pass


def _parse_number(text: str):
    """Extended-real CLI numbers: 'inf', integers, fractions 'a/b', decimals."""
    text = text.strip()
    if text in ("inf", "Inf", "INF"):
        return math.inf
    try:
        if "/" in text:
            return Fraction(text)
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse number {text!r}: {exc}")


def _parse_center(text: str, d: int):
    try:
        space, t = text.split(":")
        coords = tuple(float(v) for v in space.split(","))
    except ValueError:
        raise CliError(f"center must look like 'x1[,x2,...]:t', got {text!r}")
    if len(coords) != d:
        raise CliError(f"center has {len(coords)} spatial coordinates, field has d={d}")
    return SpaceTimePoint(coords, float(t))


@dataclass
class LadderSpec:
    delta_max: float | None
    ratio: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise CliError(f"ladder ratio must lie in (0, 1), got {self.ratio!r}")
        if self.count < 3:
            raise CliError(f"ladder count must be at least 3, got {self.count!r}")

    def scales(self, domain_width: float) -> list:
        top = self.delta_max if self.delta_max is not None else domain_width / 8.0
        if not top > 0:
            raise CliError("ladder delta_max must be positive")
        return [top * self.ratio ** k for k in range(self.count)]


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _fail(kind: str, message: str, code: int) -> int:
    _emit({"schema": SCHEMA, "error": {"type": kind, "message": message}})
    return code


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

_EXPONENT_FLAGS_UNUSED = {
    "euler": (),
    "ns": ("--optimal", "--unbounded-pressure"),
    "claw": ("--q", "--alpha", "--optimal", "--unbounded-pressure"),
}


def _check_exponent_flags(args) -> None:
    """Reject flags the chosen regime would parse and then ignore."""
    given = {"--q": args.q is not None, "--alpha": args.alpha is not None,
             "--optimal": args.optimal, "--unbounded-pressure": args.unbounded_pressure}
    for flag in _EXPONENT_FLAGS_UNUSED[args.regime]:
        if given[flag]:
            raise CliError(f"{flag} has no effect with --regime {args.regime}")
    alpha_choices = [f for f in ("--alpha", "--optimal", "--unbounded-pressure") if given[f]]
    if len(alpha_choices) > 1:
        raise CliError(f"{' and '.join(alpha_choices)} each fix alpha; give at most one")


def cmd_exponents(args) -> int:
    _check_exponent_flags(args)
    regime = args.regime
    if regime == "claw":
        if args.r is None:
            raise CliError("claw regime requires --r")
        report = ex.conservation_law_exponent(args.d, _parse_number(args.r))
    else:
        q = _parse_number(args.q) if args.q is not None else math.inf
        r = _parse_number(args.r) if args.r is not None else math.inf
        cls = ex.IntegrabilityClass(args.d, q, r)
        if regime == "euler":
            if args.unbounded_pressure:
                report = ex.euler_unbounded_pressure(cls)
            elif args.optimal or args.alpha is None:
                report = ex.euler_optimal(cls)
            else:
                report = ex.euler_exponent(cls, _parse_number(args.alpha))
        else:
            alpha = _parse_number(args.alpha) if args.alpha is not None else 2
            report = ex.navier_stokes_exponent(cls, alpha)
    payload = {"schema": SCHEMA}
    payload.update(report.to_json_dict())
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def cmd_dimension(args) -> int:
    for flag, value in (("--top-k", args.top_k), ("--sample-centers", args.sample_centers)):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be at least 1, got {value!r}")
    if args.sample_centers is not None and args.top_k is not None:
        raise CliError("--top-k has no effect with --sample-centers")
    if args.sample_centers is None and args.seed is not None:
        raise CliError("--seed has no effect without --sample-centers")
    mu = dio.read_measure(args.input)
    points = mu.support_points()
    if points.shape[0] == 0:
        raise CliError("empty support")
    width = float(max(points.max(axis=0) - points.min(axis=0)))
    spec = LadderSpec(args.delta_max, args.ratio, args.count)
    scales = spec.scales(width)

    box = box_counting_dimension(points, args.alpha, scales)
    ladder_s = args.s if args.s is not None else 0.0
    centers = None
    if args.sample_centers is not None:
        rng = np.random.default_rng(args.seed or 0)
        idx = rng.choice(points.shape[0], size=min(args.sample_centers, points.shape[0]),
                         replace=False)
        centers = points[np.sort(idx)]
    ladder = density_ladder(mu, args.alpha, ladder_s, scales, centers=centers,
                            top_k=args.top_k)
    certified, verdict = certify_lower_bound(ladder)

    if args.csv:
        text = dio.ladder_csv(ladder) if args.s is not None else dio.box_count_csv(scales, box)
        with open(args.csv, "w") as fh:
            fh.write(text)

    _emit({
        "schema": SCHEMA,
        "input": args.input,
        "n_atoms": mu.n_atoms,
        "total_mass": mu.total_mass,
        "alpha": args.alpha,
        "scales": scales,
        "counts": box.counts,
        "dim_estimate": box.dim_estimate,
        "box_fit_residual": box.fit_residual,
        "ladder_s": ladder_s,
        "densities": list(ladder.densities),
        "ladder_slope": ladder.fitted_slope,
        "ladder_residual": ladder.fit_residual,
        "certified_s": certified,
        "verdict": verdict,
    })
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.nu is not None and not args.nu >= 0:
        raise CliError(f"--nu must be non-negative, got {args.nu!r}")
    field = dio.read_field(args.input)
    q = _parse_number(args.q)
    r = _parse_number(args.r)
    if args.center:
        centers = [_parse_center(c, field.d) for c in args.center]
    else:
        mid = tuple(0.5 * (field.a + field.b) for _ in range(field.d))
        centers = [SpaceTimePoint(mid, field.T / 2.0)]
    spec = LadderSpec(args.delta_max, args.ratio, args.count)
    scales = spec.scales(field.b - field.a)
    pair = BURGERS_PAIR if args.pair == "burgers" else None

    rows = []
    skipped = 0
    time_unresolved = 0   # rows whose eta is nonzero at < 2 time nodes: term I is 0
    for center in centers:
        for delta in scales:
            cutoff = CutoffPair.build(center, delta, args.alpha)
            try:
                rep = holder_cylinder_bound(field, cutoff, q, r, pair=pair,
                                            nu=args.nu or 0.0)
            except MarginError:
                skipped += 1
                continue
            rows.append((center, delta, rep))
            time_unresolved += int(np.count_nonzero(cutoff.eta.value(field.t_axis)) < 2)
    if not rows:
        raise CliError("every sweep point violated the grid margins")

    header = ["center_x" + ("" if field.d == 1 else f"{i+1}") for i in range(field.d)]
    header += ["t", "delta", "weak_mass", "holder_bound", "ratio"]
    if args.nu:
        header.append("grad_mass_cylinder")
    lines = [",".join(header)]
    for center, delta, rep in rows:
        ratio = rep.weak_mass / rep.holder_bound if rep.holder_bound > 0 else 0.0
        cells = [repr(c) for c in center.x] + [repr(center.t), repr(float(delta)),
                                               repr(rep.weak_mass), repr(rep.holder_bound),
                                               repr(ratio)]
        if args.nu:
            cells.append(repr(rep.grad_mass_cylinder))
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stderr.write(csv_text)

    pos = [(d_, rep.weak_mass) for _, d_, rep in rows if rep.weak_mass > 0]
    if len(pos) >= 3:
        slope = float(np.polyfit(np.log([p[0] for p in pos]),
                                 np.log([p[1] for p in pos]), 1)[0])
    else:
        slope = None
    bounded = [rep.weak_mass <= rep.holder_bound * (1 + 1e-9) for _, _, rep in rows]
    _emit({
        "schema": SCHEMA,
        "input": args.input,
        "q": "inf" if q == math.inf else float(q),
        "r": "inf" if r == math.inf else float(r),
        "alpha": args.alpha,
        "nu": args.nu,
        "rows": len(rows),
        "skipped": skipped,
        "time_unresolved": time_unresolved,
        "all_bounded": all(bounded),
        "weak_mass_slope": slope,
    })
    return 0


# ---------------------------------------------------------------------------
# fixture writers
# ---------------------------------------------------------------------------

def cmd_burgers(args) -> int:
    datum = RiemannDatum(args.ul, args.ur, args.x0)
    field = burgers_entropy_solution(datum, args.a, args.b, args.nx, args.T, args.nt)
    payload = {"schema": SCHEMA, "shock": datum.is_shock,
               "shock_speed": datum.shock_speed if datum.is_shock else None}
    if args.field_out:
        dio.write_field(args.field_out, field, binary=not args.text)
        payload["field_out"] = args.field_out
    if args.measure_out:
        mu = burgers_dissipation_measure(datum, args.T, args.measure_atoms)
        dio.write_measure(args.measure_out, mu, binary=not args.text)
        payload["measure_out"] = args.measure_out
        payload["measure_atoms"] = mu.n_atoms
        payload["measure_mass"] = mu.total_mass
    _emit(payload)
    return 0


def cmd_vfield(args) -> int:
    datum = RiemannDatum(args.ul, args.ur, args.x0)
    run = viscous_burgers_run(datum, args.nu, args.a, args.b, args.nx, args.T,
                              args.nt, bc=args.bc, initial=args.initial)
    if args.field_out:
        dio.write_field(args.field_out, run.field)
    if args.measure_out:
        dio.write_measure(args.measure_out, run.dissipation, binary=True)
    payload = {"schema": SCHEMA}
    payload.update(run.manifest())
    if args.field_out:
        payload["field_out"] = args.field_out
    if args.measure_out:
        payload["measure_out"] = args.measure_out
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dissdim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="closed-form scaling exponents")
    p.add_argument("--regime", choices=["euler", "ns", "claw"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", default=None, help="time exponent (number, 'a/b' or 'inf')")
    p.add_argument("--r", default=None, help="space exponent (number, 'a/b' or 'inf')")
    p.add_argument("--alpha", default=None, help="time-anisotropy parameter")
    p.add_argument("--optimal", action="store_true",
                   help="euler: balance the two terms instead of using --alpha")
    p.add_argument("--unbounded-pressure", dest="unbounded_pressure", action="store_true",
                   help="euler with r=inf and no pressure integrability assumed")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("dimension", help="dimension and density reports for a measure file")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--s", type=float, default=None,
                   help="density-ladder exponent; selects the density CSV body")
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--sample-centers", dest="sample_centers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the --sample-centers draw (default 0)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("verify", help="cylinder sweep of weak masses vs explicit bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--q", default="inf")
    p.add_argument("--r", default="inf")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--pair", choices=["auto", "burgers"], default="auto")
    p.add_argument("--center", action="append", default=[],
                   help="sweep center 'x1[,x2,...]:t'; repeatable")
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("burgers", help="write an exact Riemann solution and its measure")
    p.add_argument("--ul", type=float, required=True)
    p.add_argument("--ur", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--nx", type=int, default=1025)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--nt", type=int, default=513)
    p.add_argument("--measure-atoms", dest="measure_atoms", type=int, default=2048)
    p.add_argument("--field-out", dest="field_out", default=None)
    p.add_argument("--measure-out", dest="measure_out", default=None)
    p.add_argument("--text", action="store_true", help="write text bodies instead of binary")
    p.set_defaults(func=cmd_burgers)

    p = sub.add_parser("vfield", help="viscous solver run: field, measure, manifest")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--ul", type=float, required=True)
    p.add_argument("--ur", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--nt", type=int, default=401)
    p.add_argument("--bc", choices=["dirichlet_states", "periodic"], default="dirichlet_states")
    p.add_argument("--initial", choices=["riemann", "viscous_profile"], default="riemann")
    p.add_argument("--field-out", dest="field_out", default=None)
    p.add_argument("--measure-out", dest="measure_out", default=None)
    p.set_defaults(func=cmd_vfield)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ex.RegimeError, dio.MalformedFileError, MarginError,
            ValueError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except (NumericalError, FloatingPointError, VerificationError) as exc:
        return _fail(type(exc).__name__, str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
