"""Command-line surface: verify, simulate, plot, scan.

Exit codes are uniform across commands: 0 success / all checks pass,
1 domain or check failure, 2 internal error.  Every output file gets a
JSON manifest sidecar recording the command, every parsed option, the
toolkit version, context fingerprint and the Python, platform and numpy
versions, so any artifact can be reproduced.  ``simulate`` and ``scan``
also record the ``SimConfig`` that ran, as ``sim_config``.

``SimConfig`` holds the run defaults: its fields are options of
``simulate`` and ``scan`` that are left unset unless given, and
``build_sim_config`` passes only the ones set.  ``scan`` keeps two
defaults of its own, ``--t-end 50`` and ``--rel-tol 1e-10``.

``verify`` and the parser load no numpy: ``simulate``, ``plot`` and ``scan``
import ``quadint.dynamics`` (and numpy) when they run.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _apply_config(parsers, config: dict[str, str]):
    """Make the config file's values the defaults of the options of
    ``parsers``, converted by each option's own type, so that an option
    given on the command line, in any spelling, still wins.  A key that no
    option of any parser has is an error; ``help`` is accepted and ignored."""
    values = {key.replace("-", "_"): (key, value) for key, value in config.items()}
    options = [action for parser in parsers for action in parser._actions
               if action.option_strings]
    dests = {action.dest for action in options}
    unknown = [key for dest, (key, _) in values.items() if dest not in dests]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    for action in options:
        # --help takes no config value
        if action.dest == "help" or action.dest not in values:
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


def write_manifest(args, config=None, fingerprint=None):
    """Write ``args.out``'s manifest: every parsed option, the fingerprint
    of the context that ran (``fingerprint``; by default that of the
    default context) and, for a run, ``config``, the SimConfig that ran."""
    if fingerprint is None:
        fingerprint = context_fingerprint(build_context())
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "fn"},
        "outputs": [str(args.out)],
        "version": __version__,
        "context_fingerprint": fingerprint,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": _numpy_version(),
    }
    if config is not None:
        manifest["sim_config"] = dataclasses.asdict(config)
    with open(str(args.out) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def build_sim_config(args):
    """The SimConfig of the fields that ``args`` sets; every other field
    keeps SimConfig's default.  ``a``, ``b`` and ``w0`` are exact entries
    (see ``parse_rational``)."""
    from .dynamics import SimConfig

    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)
              if hasattr(args, f.name)}
    for name in ("a", "b", "w0"):
        if name in values:
            values[name] = float(parse_rational(values[name]))
    return SimConfig(**values)


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
        write_manifest(args, fingerprint=report.fingerprint)
    print(text)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    from .dynamics import PhaseState, simulate

    config = build_sim_config(args)
    initial = PhaseState.make(0.0, parse_vec3(args.q0), parse_vec3(args.p0))
    record, outcome = simulate(config, initial)
    record.write_csv(args.out)
    write_manifest(args, config)
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
    write_manifest(args)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    from .dynamics import scan_initial_conditions, scan_singularity, write_scan_csv

    config = build_sim_config(args)
    ics = scan_initial_conditions(args.seed, args.n, args.q_range, args.p_range)
    table = scan_singularity(config, ics, jobs=args.jobs)
    write_scan_csv(table, args.out)
    write_manifest(args, config)
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

    # SimConfig's fields are left unset unless given (argument_default), so
    # that SimConfig's defaults apply
    p = sub.add_parser("simulate", help="integrate one trajectory to CSV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--w0")
    p.add_argument("--q0", required=True, help="x,y,z")
    p.add_argument("--p0", required=True, help="px,py,pz")
    p.add_argument("--t-end", type=float)
    # SimConfig rejects an unknown name and lists the valid ones
    p.add_argument("--integrator")
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--abs-tol", type=float)
    p.add_argument("--fixed-step", type=float)
    p.add_argument("--u-floor", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--sample-interval", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", default=False,
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

    # as for simulate, except that a scan runs shorter and looser by default
    p = sub.add_parser("scan", help="batch singularity-approach scan (w0 < 0)",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--w0")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q-range", type=float, default=0.5)
    p.add_argument("--p-range", type=float, default=0.4)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--u-floor", type=float)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_scan)
    _apply_config(sub.choices.values(), config or {})
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
