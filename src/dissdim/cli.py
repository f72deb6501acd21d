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
import random
import re
import sys
from fractions import Fraction

import numpy as np

from . import exponents as ex
from . import io as dio
from .aniso_measure import box_counting_dimension, certify_lower_bound, density_ladder
from .cutoffs import CutoffPair
from .errors import NumericalError, VerificationError
from .fields import _SpaceTimeGrid
from .fixtures import (RiemannDatum, burgers_dissipation_measure, burgers_entropy_solution,
                       viscous_burgers_run)
from .weak_balance import BURGERS_PAIR, MarginError, holder_cylinder_bound

SCHEMA = "dissdim/1"


class CliError(ValueError):
    pass


def _parse_number(text: str):
    """Extended-real CLI numbers: 'inf', integers, fractions 'a/b', decimals.

    A decimal beyond the float64 range (1e400) stays the exact Fraction, so
    it is refused where too large exactly as its 401-digit integer is.  A
    'nan' is left to the check that owns the flag, which refuses it by name."""
    text = text.strip()
    if text in ("inf", "Inf", "INF", "nan", "NaN", "NAN"):
        return float(text)
    try:
        if "/" in text:
            return Fraction(text)
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        value = float(text)
        if math.isinf(value) and "inf" not in text.lower():
            return Fraction(text)
        return value
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
    return (*coords, float(t))


def _ladder_flags() -> argparse.ArgumentParser:
    """The parent parser of the flags that dimension and verify share, ``_ladder``'s among them."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=None)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--csv", default=None)
    return p


def _ladder(args, domain_width: float | None) -> list:
    """The scales of ``--delta-max`` (default width / 8), ``--ratio`` and
    ``--count``; ``domain_width`` is read only when ``--delta-max`` is not given."""
    if not (0.0 < args.ratio < 1.0):
        raise CliError(f"ladder ratio must lie in (0, 1), got {args.ratio!r}")
    if args.count < 3:
        raise CliError(f"ladder count must be at least 3, got {args.count!r}")
    if args.count > sys.float_info.max:
        raise CliError(f"ladder count must fit a float64, got {args.count!r}")
    if args.delta_max is None and domain_width == 0:
        raise CliError("the support has zero extent, so the default delta_max (width / 8)"
                       " is 0: give --delta-max")
    if args.delta_max is None and domain_width == math.inf:
        raise CliError("the support's extent overflows a float64, so the default delta_max"
                       " (width / 8) is inf: give --delta-max")
    top = args.delta_max if args.delta_max is not None else domain_width / 8.0
    if not top > 0:
        raise CliError("ladder delta_max must be positive")
    # the smallest scale first: a count whose tail underflows is refused
    # before its list is built
    if not top * args.ratio ** (args.count - 1) > 0:
        raise CliError(f"the smallest ladder scale underflows to 0 at count {args.count!r}")
    # one scale at a time, so that a ratio whose scales round onto each
    # other is refused at the first repeat, not after the whole list
    scales = [top]
    for k in range(1, args.count):
        scales.append(top * args.ratio ** k)
        if not scales[-1] < scales[-2]:
            raise CliError(f"scales must be strictly decreasing: scale {k} = {scales[-1]!r}"
                           f" is not below scale {k - 1} = {scales[-2]!r}")
    return scales


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
    "ns": ("--unbounded-pressure",),
    "claw": ("--q", "--alpha", "--unbounded-pressure"),
}


def _check_exponent_flags(args) -> None:
    """Reject flags the chosen regime would parse and then ignore."""
    given = {"--q": args.q is not None, "--alpha": args.alpha is not None,
             "--unbounded-pressure": args.unbounded_pressure}
    for flag in _EXPONENT_FLAGS_UNUSED[args.regime]:
        if given[flag]:
            raise CliError(f"{flag} has no effect with --regime {args.regime}")
    if given["--alpha"] and given["--unbounded-pressure"]:
        raise CliError("--alpha and --unbounded-pressure each fix alpha; give at most one")


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
            elif args.alpha is None:
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
    if args.sample_centers is not None and args.sample_centers < 1:
        raise CliError(f"--sample-centers must be at least 1, got {args.sample_centers!r}")
    if args.sample_centers is None and args.seed is not None:
        raise CliError("--seed has no effect without --sample-centers")
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed!r}")
    mu = dio.read_measure(args.input)
    # total_mass maps the whole body for its one sum: taken while little else is resident
    total_mass = mu.total_mass
    points = mu.support_points()
    if points.shape[0] == 0:
        raise CliError("empty support")
    width = None
    if args.delta_max is None:   # the default delta_max alone reads the support's extent
        with np.errstate(over="ignore"):
            width = float(max(points.max(axis=0) - points.min(axis=0)))
    scales = _ladder(args, width)

    box = box_counting_dimension(points, args.alpha, scales)
    ladder_s = args.s if args.s is not None else 0.0
    centers = points
    if args.sample_centers is not None:
        n = points.shape[0]
        idx = random.Random(args.seed or 0).sample(range(n), min(args.sample_centers, n))
        centers = points[sorted(idx)]
    del points   # a sample of centers does not keep the whole support alive
    ladder = density_ladder(mu, args.alpha, ladder_s, scales, centers=centers)
    certified, verdict = certify_lower_bound(ladder)

    if args.csv:
        if args.s is None:
            column, values, fit = "count", box.counts, (box.dim_estimate, box.fit_residual)
        else:
            column, values = "density", ladder.densities
            fit = (ladder.fitted_slope, ladder.fit_residual)
        with open(args.csv, "w") as fh:
            fh.write(dio.report_csv(["delta", column, "fit_slope", "residual"],
                                    [(delta, v, *fit) for delta, v in zip(scales, values)]))

    _emit({
        "schema": SCHEMA,
        "input": args.input,
        "n_atoms": mu.n_atoms,
        "total_mass": total_mass,
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
    if args.nu is not None and not 0 <= args.nu < math.inf:
        raise CliError(f"--nu must be non-negative and finite, got {args.nu!r}")
    field = dio.read_field(args.input)
    q = _parse_number(args.q)
    r = _parse_number(args.r)
    if args.center:
        centers = [_parse_center(c, field.d) for c in args.center]
    else:
        centers = [(0.5 * (field.a + field.b),) * field.d + (field.T / 2.0,)]
    scales = _ladder(args, field.b - field.a)
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
            ratio = rep.weak_mass / rep.holder_bound if rep.holder_bound > 0 else 0.0
            rows.append([*center, float(delta), rep.weak_mass, rep.holder_bound, ratio]
                        + ([rep.grad_mass_cylinder] if args.nu else []))
            time_unresolved += int(rep.time_nodes < 2)
    if not rows:
        raise CliError("every sweep point violated the grid margins")

    header = ["center_x" + ("" if field.d == 1 else f"{i+1}") for i in range(field.d)]
    header += ["t", "delta", "weak_mass", "holder_bound", "ratio"]
    if args.nu:
        header.append("grad_mass_cylinder")
    csv_text = dio.report_csv(header, rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stderr.write(csv_text)

    _emit({
        "schema": SCHEMA,
        "input": args.input,
        "q": ex._json_number(q),
        "r": ex._json_number(r),
        "alpha": args.alpha,
        "nu": args.nu,
        "rows": len(rows),
        "skipped": skipped,
        "time_unresolved": time_unresolved,
        "all_bounded": True,   # holder_cylinder_bound checked each row's dominance
    })
    return 0


# ---------------------------------------------------------------------------
# fixture writers
# ---------------------------------------------------------------------------

def cmd_burgers(args) -> int:
    given = {"--field-out": args.field_out, "--measure-out": args.measure_out}
    either = "--field-out or --measure-out"
    # each flag's default and the outputs that read it: given without them, it exits 2
    for flag, default, needs in (("--x0", 0.0, either), ("--T", 1.0, either),
                                 ("--text", False, either), ("--a", -1.0, "--field-out"),
                                 ("--b", 1.0, "--field-out"), ("--nx", 1025, "--field-out"),
                                 ("--nt", 513, "--field-out"),
                                 ("--measure-atoms", 2048, "--measure-out")):
        name = flag[2:].replace("-", "_")
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not any(given[o] for o in needs.split(" or ")):
            raise CliError(f"{flag} has no effect without {needs}")
    datum = RiemannDatum(args.ul, args.ur, args.x0)
    _SpaceTimeGrid(1, args.a, args.b, args.nx, args.T, args.nt)   # grid flags exit 2
    payload = {"schema": SCHEMA, "shock": datum.is_shock,
               "shock_speed": datum.shock_speed if datum.is_shock else None}
    if args.field_out:
        field = burgers_entropy_solution(datum, args.a, args.b, args.nx, args.T, args.nt)
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a parse failure exits 2 with the JSON error object too
        raise CliError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # no option starts with '-' and a digit or '.', so such a word is a
        # value: a negative number, or a center such as -0.01:0.25
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dissdim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="closed-form scaling exponents")
    p.add_argument("--regime", choices=["euler", "ns", "claw"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", default=None, help="time exponent (number, 'a/b' or 'inf')")
    p.add_argument("--r", default=None, help="space exponent (number, 'a/b' or 'inf')")
    p.add_argument("--alpha", default=None,
                   help="time-anisotropy parameter (euler default: the alpha that balances"
                        " the two terms; ns default: 2)")
    p.add_argument("--unbounded-pressure", dest="unbounded_pressure", action="store_true",
                   help="euler with r=inf and no pressure integrability assumed")
    p.set_defaults(func=cmd_exponents)

    ladder = [_ladder_flags()]
    p = sub.add_parser("dimension", parents=ladder,
                       help="dimension and density reports for a measure file")
    p.add_argument("--s", type=float, default=None,
                   help="density-ladder exponent; selects the density CSV body")
    p.add_argument("--sample-centers", dest="sample_centers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the --sample-centers draw (default 0)")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("verify", parents=ladder,
                       help="cylinder sweep of weak masses vs explicit bounds")
    p.add_argument("--q", default="inf")
    p.add_argument("--r", default="inf")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--pair", choices=["auto", "burgers"], default="auto")
    p.add_argument("--center", action="append", default=[],
                   help="sweep center 'x1[,x2,...]:t'; repeatable")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("burgers", help="write an exact Riemann solution and its measure")
    p.add_argument("--ul", type=float, required=True)
    p.add_argument("--ur", type=float, required=True)
    # defaults in cmd_burgers, which rejects a flag that no output reads
    p.add_argument("--x0", type=float, default=None, help="initial jump position (default 0)")
    p.add_argument("--a", type=float, default=None, help="left end of the field grid (default -1)")
    p.add_argument("--b", type=float, default=None, help="right end of the field grid (default 1)")
    p.add_argument("--nx", type=int, default=None, help="field grid nodes in x (default 1025)")
    p.add_argument("--T", type=float, default=None, help="final time (default 1)")
    p.add_argument("--nt", type=int, default=None, help="field grid nodes in t (default 513)")
    p.add_argument("--measure-atoms", dest="measure_atoms", type=int, default=None,
                   help="atoms of the --measure-out measure (default 2048)")
    p.add_argument("--field-out", dest="field_out", default=None)
    p.add_argument("--measure-out", dest="measure_out", default=None)
    p.add_argument("--text", action="store_true", default=None, help="text bodies, not binary")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # the typed input errors subclass ValueError; an array too large to allocate is one too
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except (NumericalError, FloatingPointError, VerificationError) as exc:
        return _fail(type(exc).__name__, str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
