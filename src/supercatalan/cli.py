"""Command line front end.

Three subcommands:

    compute  evaluate one quantity at one parameter point
    verify   sweep selected identities over a grid, human summary by default
    sweep    like verify but machine-readable output only, explicit bounds

Exit status is 0 for success, 1 when any identity check failed, 2 for
usage errors, an --output file that cannot be written and a standard
output whose reader has gone. All printed values are exact; rationals
appear as p/q.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__, dsums, exactnum, sums, supercat, verifier

__all__ = ["main"]


class _UsageError(Exception):
    pass


# grid bound names as GridBounds fields; the flags spell them --n-max etc.
_BOUNDS = verifier.GridBounds._fields
_WRITE_SLICE = 1 << 20  # characters a write; see _write_text

# kind -> (parameter flags, evaluator, help note); the evaluator takes the
# parameters positionally in the order listed, and every one is required
_KINDS = {
    "super-catalan": (("n", "l"), supercat.super_catalan, ""),
    "catalan": (("n",), supercat.catalan, ""),
    "psi": (("n", "m", "l"), sums.psi, ""),
    "psi-t": (("n", "t", "l"), sums.psi_t, ""),
    "phi": (("n", "l", "t"), supercat.phi, "closed form of the length-2n window sum"),
    "p": (("n", "t", "l"), sums.p_sum, ""),
    "r": (("n", "t", "l"), sums.r_sum, ""),
    "r-prime": (("n", "t", "l"), sums.r_prime_sum, ""),
    "r-dprime": (("n", "t", "l"), sums.r_dprime_sum, ""),
    "t-sum": (("n", "t", "l"), sums.t_sum, ""),
    "d-sum": (("n", "j", "t", "l"), partial(dsums.d_sum_direct, dsums.psi_summand),
              "level engine with the psi summand"),
    "q": (("n", "s", "l"), dsums.q_sum, "rational level-1 kernel"),
}

# every compute parameter flag, in the order the kinds first name it
_COMPUTE_FLAGS = tuple(dict.fromkeys(flag for flags, _, _ in _KINDS.values() for flag in flags))

_COMPUTE_EPILOG = "\n".join(
    ["parameters by kind (all take full, untransformed arguments unless noted):"]
    + [f"  {kind:15}{' '.join(f'--{flag}' for flag in flags):17}{note}".rstrip()
       for kind, (flags, _, note) in _KINDS.items()])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercatalan",
        description="exact super Catalan convolutions and identity sweeps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser(
        "compute", help="evaluate one quantity at one point",
        epilog=_COMPUTE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    comp.add_argument("kind", choices=sorted(_KINDS))
    for flag in _COMPUTE_FLAGS:
        comp.add_argument(f"--{flag}", type=int, default=None)
    comp.set_defaults(func=_cmd_compute)

    def add_sweep_args(p: argparse.ArgumentParser, formats: tuple[str, ...],
                       default_format: str) -> None:
        p.add_argument("--id", action="append", default=None, metavar="IDENTITY",
                       help="identity to check (repeatable)")
        p.add_argument("--all", action="store_true", help="check every identity")
        for name in _BOUNDS:
            p.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--output", default=None, metavar="PATH")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit runtime and generation time from output")

    ver = sub.add_parser("verify", help="sweep identities over a grid")
    add_sweep_args(ver, ("json", "csv", "human"), "human")
    ver.add_argument("--default-grid", action="store_true",
                     help=f"use the default grid ({verifier.GridBounds().describe()})")
    ver.set_defaults(func=_cmd_verify)

    swp = sub.add_parser(
        "sweep", help="sweep with explicit bounds, machine-readable output")
    add_sweep_args(swp, ("json", "csv"), "json")
    swp.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    required, evaluate, _ = _KINDS[args.kind]
    provided = {flag: getattr(args, flag) for flag in _COMPUTE_FLAGS
                if getattr(args, flag) is not None}
    missing = [f"--{flag}" for flag in required if flag not in provided]
    if missing:
        raise _UsageError(f"compute {args.kind} requires {', '.join(missing)}")
    extra = [f"--{flag}" for flag in provided if flag not in required]
    if extra:
        raise _UsageError(f"compute {args.kind} does not take {', '.join(extra)}")
    try:
        value = evaluate(*(provided[flag] for flag in required))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write_stdout(f"{exactnum.decimal_text(value)}\n")
    return 0


def _selected_ids(args: argparse.Namespace) -> list[str]:
    if args.all and args.id:
        raise _UsageError("give either --all or --id, not both")
    if args.all:
        return list(verifier.registry_ids())
    if args.id:
        return args.id
    raise _UsageError("select identities with --all or --id")


def _given_bounds(args: argparse.Namespace) -> dict[str, int]:
    return {name: getattr(args, name) for name in _BOUNDS
            if getattr(args, name) is not None}


def _cannot_write(path: str, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _write_text(fh, text: str) -> None:
    # in slices, so that encoding never holds a second copy of the whole text
    for start in range(0, len(text), _WRITE_SLICE):
        fh.write(text[start:start + _WRITE_SLICE])


def _write_stdout(text: str) -> None:
    try:
        _write_text(sys.stdout, text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader has gone; with stdout on the null device, the flush
        # at exit discards what is still buffered instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _UsageError(f"cannot write standard output: {exc.strerror}") from exc


def _probe_output(path: str) -> None:
    """Fail before the sweep if path cannot be opened for writing.

    Mode "a" truncates nothing, and a file the probe created is removed at
    once, so a sweep that then fails leaves the path as it found it.
    """
    created = not os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if created:
        os.remove(path)


def _run_sweep(args: argparse.Namespace) -> int:
    ids = _selected_ids(args)
    if args.output:
        _probe_output(args.output)
    try:
        # sweep validates the selection, jobs and bounds
        report = verifier.sweep(ids, verifier.GridBounds(**_given_bounds(args)),
                                jobs=args.jobs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.format == "json":
        text = verifier.to_jsonl(report)
    elif args.format == "csv":
        text = verifier.to_csv(report)
    else:
        text = verifier.to_human(report, show_timestamp=not args.no_timestamp)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_text(fh, text)
        except OSError as exc:
            raise _cannot_write(args.output, exc) from exc
    else:
        _write_stdout(text)
    return 1 if report.failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.default_grid and _given_bounds(args):
        raise _UsageError("--default-grid excludes explicit bounds")
    return _run_sweep(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not _given_bounds(args):
        raise _UsageError("sweep requires at least one explicit grid bound")
    return _run_sweep(args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
