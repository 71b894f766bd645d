"""Command-line surface: verify, simulate, plot, scan.

Exit codes are uniform across commands: 0 success / all checks pass,
1 domain or check failure, 2 internal error.  Every output file gets a
JSON manifest sidecar recording the command, parameters, toolkit
version, and context fingerprint, so any artifact can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .catalog import ParamDomain, build_context
from .dynamics import (
    INTEGRATORS,
    PhaseState,
    SimConfig,
    scan_singularity,
    simulate,
    write_scan_csv,
)
from .plotting import VIEWS, MalformedInput, plot_trajectories
from .radical import SingularPoint
from .verifier import __version__, context_fingerprint, run_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INTERNAL = 2


def parse_rational(text: str) -> Fraction:
    """Exact numeric entry: 'p/q' or a decimal string."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(text)


def parse_vec3(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated components, got {text!r}")
    return tuple(parts)


def _default_jobs() -> int:
    env = os.environ.get("QUADINT_JOBS")
    return int(env) if env else 1


def _load_config_file(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_manifest(out_path: str, command: str, params: dict):
    manifest = {
        "command": command,
        "parameters": params,
        "outputs": [str(out_path)],
        "version": __version__,
        "context_fingerprint": context_fingerprint(build_context()),
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


# -- subcommands -------------------------------------------------------


def cmd_verify(args) -> int:
    ctx = build_context(alt_ly=args.alt_ly)
    report = run_report(ctx, only=args.only)
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        write_manifest(args.out, "verify", {
            "format": args.format, "only": args.only, "alt_ly": args.alt_ly,
        })
    print(text)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    config = SimConfig(
        a=float(parse_rational(args.a)),
        b=float(parse_rational(args.b)),
        w0=float(parse_rational(args.w0)),
        integrator=args.integrator,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        fixed_step=args.fixed_step,
        t_end=args.t_end,
        u_floor=args.u_floor,
        r_max=args.r_max,
        sample_interval=args.sample_interval,
    )
    initial = PhaseState.make(0.0, parse_vec3(args.q0), parse_vec3(args.p0))
    record, outcome = simulate(config, initial)
    record.write_csv(args.out)
    write_manifest(args.out, "simulate", {
        "a": args.a, "b": args.b, "w0": args.w0,
        "q0": args.q0, "p0": args.p0, "t_end": args.t_end,
        "integrator": args.integrator, "rel_tol": args.rel_tol,
        "abs_tol": args.abs_tol, "fixed_step": args.fixed_step,
        "u_floor": args.u_floor, "r_max": args.r_max,
        "sample_interval": args.sample_interval,
    })
    print(
        f"classification: {outcome.classification}\n"
        f"t_final: {outcome.t_final:.6g}\n"
        f"relative drift H: {outcome.drift_H:.3e}  X1: {outcome.drift_X1:.3e}  "
        f"X2: {outcome.drift_X2:.3e}\n"
        f"min u: {outcome.min_u:.6g}  max |q|: {outcome.max_q:.6g}\n"
        f"steps: {outcome.steps}  rejected: {outcome.rejected}  "
        f"floor-accepted: {outcome.floor_accepted}"
        + (f"\ndetail: {outcome.detail}" if outcome.detail else "")
    )
    if args.strict and outcome.classification != "completed":
        return EXIT_FAIL
    return EXIT_OK


def cmd_plot(args) -> int:
    plot_trajectories(
        args.trajectories,
        args.out,
        a=float(parse_rational(args.a)),
        b=float(parse_rational(args.b)),
        view=args.view,
        width=args.width,
        height=args.height,
    )
    write_manifest(args.out, "plot", {
        "trajectories": list(args.trajectories), "a": args.a, "b": args.b,
        "view": args.view, "width": args.width, "height": args.height,
    })
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    w0 = float(parse_rational(args.w0))
    if w0 >= 0:
        print("scan requires w0 < 0 (the question is only open there)", file=sys.stderr)
        return EXIT_FAIL
    config = SimConfig(
        a=float(parse_rational(args.a)),
        b=float(parse_rational(args.b)),
        w0=w0,
        t_end=args.t_end,
        rel_tol=args.rel_tol,
        u_floor=args.u_floor,
    )
    rng = np.random.default_rng(args.seed)
    ics = []
    for _ in range(args.n):
        q = tuple(rng.uniform(-args.q_range, args.q_range, 3))
        p = tuple(rng.uniform(-args.p_range, args.p_range, 3))
        ics.append((q, p))
    table = scan_singularity(config, ics, jobs=args.jobs)
    write_scan_csv(table, args.out)
    write_manifest(args.out, "scan", {
        "a": args.a, "b": args.b, "w0": args.w0, "n": args.n,
        "seed": args.seed, "q_range": args.q_range, "p_range": args.p_range,
        "t_end": args.t_end, "jobs": args.jobs,
    })
    print(f"wrote {args.out} ({len(table)} rows)")
    return EXIT_OK


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadint",
        description=(
            "Exact verification and numerical dynamics for the quadratically "
            "integrable, non-separable 3D Hamiltonian system"
        ),
    )
    parser.add_argument("--config", help="key=value file providing flag defaults")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity check battery")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--only", help="run only check groups whose name contains this")
    p.add_argument(
        "--alt-ly", action="store_true",
        help="debug variant: build with l_y = z*py - x*pz (expected to fail)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    p.add_argument("--a", default="1/4")
    p.add_argument("--b", default="1")
    p.add_argument("--w0", default="-1")
    p.add_argument("--q0", required=True, help="x,y,z")
    p.add_argument("--p0", required=True, help="px,py,pz")
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--integrator", choices=INTEGRATORS, default="adaptive")
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument("--abs-tol", type=float, default=1e-14)
    p.add_argument("--fixed-step", type=float, default=1e-3)
    p.add_argument("--u-floor", type=float, default=1e-10)
    p.add_argument("--r-max", type=float, default=1e3)
    p.add_argument("--sample-interval", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 unless the run completes to t_end")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("plot", help="render trajectory CSVs to an SVG")
    p.add_argument("trajectories", nargs="*", help="trajectory CSV files")
    p.add_argument("--a", default="1/4")
    p.add_argument("--b", default="1")
    p.add_argument("--view", choices=VIEWS, default="xy")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("scan", help="batch singularity-approach scan (w0 < 0)")
    p.add_argument("--a", default="1/4")
    p.add_argument("--b", default="1")
    p.add_argument("--w0", default="-1")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q-range", type=float, default=0.5)
    p.add_argument("--p-range", type=float, default=0.4)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--u-floor", type=float, default=1e-10)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        defaults = _load_config_file(args.config)
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and f"--{key}" not in (argv or sys.argv):
                current = getattr(args, attr)
                if isinstance(current, bool):
                    setattr(args, attr, value.lower() in ("1", "true", "yes"))
                elif isinstance(current, int):
                    setattr(args, attr, int(value))
                elif isinstance(current, float):
                    setattr(args, attr, float(value))
                else:
                    setattr(args, attr, value)
    try:
        return args.fn(args)
    except (ParamDomain, SingularPoint, MalformedInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
