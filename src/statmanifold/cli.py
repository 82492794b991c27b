"""Command-line interface.

Subcommands::

    statmanifold run <spec.json> [--tol EPS] [--samples N] [--seed S] [--out PATH]
    statmanifold export <builtin> <path>
    statmanifold list
    statmanifold crosscheck <spec.json> [--h H] [--threshold T] [--samples N] [--seed S]

Exit codes: 0 all applicable checks pass, 2 some check fails, 3 spec error.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import builtin_names, get_builtin
from .manifold import ManifoldSpec, OptionError, SpecValidationError
from .pipeline import DEFAULT_TOLERANCE, FD_STEP, FD_TOLERANCE, crosscheck, run_diagnostics


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="statmanifold",
        description="Statistical-manifold geometry diagnostics on sampled charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the diagnostic battery on a spec file")
    run.add_argument("spec", help="path to a manifold spec (JSON)")
    run.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE, help="identity tolerance")
    run.add_argument("--samples", type=int, default=None, help="override sample count")
    run.add_argument("--seed", type=int, default=None, help="override sample seed")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")

    export = sub.add_parser("export", help="write a builtin instance as a spec file")
    export.add_argument("builtin", help="builtin name (see `list`)")
    export.add_argument("path", help="output path")

    sub.add_parser("list", help="list builtin instances")

    cross = sub.add_parser("crosscheck", help="compare jet derivatives against finite differences")
    cross.add_argument("spec", help="path to a manifold spec (JSON)")
    cross.add_argument("--h", type=float, default=FD_STEP, help="central-difference step")
    cross.add_argument("--threshold", type=float, default=FD_TOLERANCE)
    cross.add_argument("--samples", type=int, default=None)
    cross.add_argument("--seed", type=int, default=None)
    return parser


# the flag that sets each API argument an OptionError can name
_FLAGS = dict(tolerance="--tol", count="--samples", seed="--seed", h="--h", threshold="--threshold")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        if args.command == "export":
            return _export(args)
        if args.command == "list":
            return _list()
        return _crosscheck(args)
    except SpecValidationError as err:
        print(err, file=sys.stderr)
        return 3
    except OptionError as err:
        print(f"error: {_FLAGS[err.argument]} {err.rule}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def _load_spec(path):
    try:
        spec = ManifoldSpec.load(path)
    except FileNotFoundError:
        raise SpecValidationError([f"spec file not found: {path}"]) from None
    except ValueError as err:
        if isinstance(err, SpecValidationError):
            raise
        raise SpecValidationError([f"spec file is not valid JSON: {err}"]) from None
    return spec


def _run(args):
    spec = _load_spec(args.spec)
    report = run_diagnostics(spec, tolerance=args.tol, count=args.samples, seed=args.seed)
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    for name in report.failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    return report.exit_code()


def _export(args):
    instance = get_builtin(args.builtin)
    instance.spec.save(args.path)
    print(f"wrote {instance.spec.name} to {args.path}")
    return 0


def _list():
    for name in builtin_names():
        instance = get_builtin(name)
        print(f"{name:24s} dim={instance.spec.dim}  {instance.description}")
    return 0


def _crosscheck(args):
    spec = _load_spec(args.spec)
    report = crosscheck(spec, h=args.h, threshold=args.threshold, count=args.samples, seed=args.seed)
    sys.stdout.write(report.to_json())
    if not report.passed:
        print(
            f"crosscheck failed: max deviation {report.max_deviation:.3e} "
            f"exceeds {report.threshold:.3e}",
            file=sys.stderr,
        )
        return 2
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
