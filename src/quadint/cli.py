"""Command-line surface: verify, simulate, plot, scan.

Exit codes are uniform across commands: 0 success / all checks pass,
1 domain or check failure, 2 internal error.  Every output file gets a
JSON manifest sidecar recording the command, parameters, toolkit
version, context fingerprint and the Python, platform and numpy
versions, so any artifact can be reproduced.

``verify`` and the parser load no numpy: ``simulate``, ``plot`` and ``scan``
import ``quadint.dynamics`` (and numpy) when they run.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from fractions import Fraction

from .catalog import ParamDomain, build_context
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
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(text)


def parse_vec3(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated components, got {text!r}")
    return tuple(parts)


def _load_config_file(path) -> dict[str, str]:
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_flag(text: str) -> bool:
    """A config value for a flag option such as ``strict``."""
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected one of 1, true, yes, 0, false, no; got {text!r}")
    return value in ("1", "true", "yes")


def _apply_config(parser: argparse.ArgumentParser, config: dict[str, str]):
    """Make the config file's values the defaults of ``parser``'s options,
    converted by each option's own type, so that an option given on the
    command line, in any spelling, still wins."""
    values = {key.replace("-", "_"): (key, value) for key, value in config.items()}
    for action in parser._actions:
        # positionals and --help take no config value
        if (not action.option_strings or action.default is argparse.SUPPRESS
                or action.dest not in values):
            continue
        key, value = values[action.dest]
        convert = _parse_flag if action.nargs == 0 else action.type or str
        try:
            action.default = convert(value)
        except ValueError as exc:
            raise ValueError(f"config {key} = {value!r}: {exc}") from exc


def _numpy_version():
    """numpy's installed version, read from its metadata without importing
    it (so ``verify --out`` stays numpy-free), or None."""
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def write_manifest(out_path: str, command: str, params: dict):
    manifest = {
        "command": command,
        "parameters": params,
        "outputs": [str(out_path)],
        "version": __version__,
        "context_fingerprint": context_fingerprint(build_context()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": _numpy_version(),
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
    from .dynamics import PhaseState, SimConfig, simulate

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
        f"min u: {outcome.min_u:.6g}  min d_sing: {outcome.min_dsing:.6g}  "
        f"max |q|: {outcome.max_q:.6g}\n"
        f"steps: {outcome.steps}  rejected: {outcome.rejected}  "
        f"floor-accepted: {outcome.floor_accepted}  force-evals: {outcome.force_evals}"
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
    from .dynamics import SimConfig, scan_initial_conditions, scan_singularity, write_scan_csv

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
    ics = scan_initial_conditions(args.seed, args.n, args.q_range, args.p_range)
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


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser; ``config`` (from a --config file) gives the
    subcommands' option defaults."""
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
    # SimConfig rejects an unknown name and lists the valid ones
    p.add_argument("--integrator", default="adaptive")
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_scan)
    for p in sub.choices.values():
        _apply_config(p, config or {})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_load_config_file(args.config)).parse_args(argv)
        return args.fn(args)
    except (ParamDomain, SingularPoint, MalformedInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
