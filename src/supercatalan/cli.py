"""Command line front end.

Three subcommands:

    compute  evaluate one quantity at one parameter point
    verify   sweep selected identities over a grid, human summary by default
    sweep    like verify but machine-readable output only, explicit bounds

Exit status is 0 for success, 1 when any identity check failed, 2 for
usage errors, an --output file that cannot be written and a standard
output that cannot be written (a closed pipe, a full device, a closed
descriptor). All printed values are exact; rationals appear as p/q.

verify and sweep stream their output, as the verifier docstring tells.
--output PATH takes the text only whole: a sweep that stops on an error
or an interrupt leaves PATH as it found it. An --output PATH that cannot
be written, the empty PATH included, or a closed standard output, fails
before the sweep.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import tempfile
from contextlib import nullcontext
from functools import partial

from . import __version__, dsums, exactnum, sums, supercat, verifier

__all__ = ["main"]


class _UsageError(Exception):
    pass


# grid bound names as GridBounds fields; the flags spell them --n-max etc.
_BOUNDS = verifier.GridBounds._fields

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
        p.set_defaults(func=_cmd_sweep, no_timestamp=False)

    ver = sub.add_parser("verify", help="sweep identities over a grid")
    add_sweep_args(ver, ("json", "csv", "human"), "human")
    ver.add_argument("--no-timestamp", action="store_true",
                     help="omit runtime and generation time from output")
    ver.add_argument("--default-grid", action="store_true",
                     help=f"use the default grid ({verifier.GridBounds().describe()})")

    swp = sub.add_parser(
        "sweep", help="sweep with explicit bounds, machine-readable output")
    add_sweep_args(swp, ("json", "csv"), "json")

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


def _cannot_write(path: str, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _write_stdout(text: str) -> None:
    if sys.stdout is None:
        # started with descriptor 1 closed
        raise _UsageError(f"cannot write standard output: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe, a full device or a closed descriptor; with stdout on
        # the null device, the flush at exit discards what is still buffered
        # instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _cannot_write("standard output", exc) from exc


class _OutputFile:
    """--output PATH as a context: PATH takes the text only if the block ends.

    Entering opens a temporary file beside the file that PATH names, through
    any symlinks, as open(PATH, "w") writes, and returns its write function;
    a normal exit replaces that file with it, keeping the permission bits.
    On any exception, KeyboardInterrupt included, the temporary file is
    removed and PATH is left as it was found. A PATH that exists and is not
    a regular file, such as the null device, is written directly. Every
    open happens on entry, so a PATH that cannot be written fails before
    the sweep.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # realpath("") is the working directory; "" itself fails to open
        # as open("", "w") does
        self.target = path and os.path.realpath(path)
        self.fh = self.tmp = None

    def __enter__(self):
        try:
            if os.path.exists(self.path) and not os.path.isfile(self.path):
                self.fh = open(self.path, "w", encoding="utf-8")
                return self.write
            # mode "a" truncates nothing; a file it creates has the mode that
            # open(PATH, "w") gives one, and is removed at once
            created = not os.path.lexists(self.target)
            with open(self.target, "a", encoding="utf-8") as probe:
                mode = os.fstat(probe.fileno()).st_mode
            if created:
                os.remove(self.target)
            directory, name = os.path.split(self.target)
            fd, self.tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                                            dir=directory)
            self.fh = open(fd, "w", encoding="utf-8")
            os.chmod(self.tmp, stat.S_IMODE(mode))
        except OSError as exc:
            self.__exit__(type(exc), exc, None)
            raise _cannot_write(self.path, exc) from exc
        return self.write

    def write(self, text: str) -> None:
        try:
            self.fh.write(text)
        except OSError as exc:
            raise _cannot_write(self.path, exc) from exc

    def __exit__(self, kind, value, traceback) -> None:
        try:
            if self.fh is not None:
                self.fh.close()
            if kind is None and self.tmp is not None:
                os.replace(self.tmp, self.target)
                self.tmp = None
        except OSError as exc:
            if kind is None:
                raise _cannot_write(self.path, exc) from exc
        finally:
            if self.tmp is not None:
                os.remove(self.tmp)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Both verify and sweep: verifier._write_sweep writes to stdout or --output."""
    bounds = {name: getattr(args, name) for name in _BOUNDS
              if getattr(args, name) is not None}
    if args.command == "sweep" and not bounds:
        raise _UsageError("sweep requires at least one explicit grid bound")
    if args.command == "verify" and args.default_grid and bounds:
        raise _UsageError("--default-grid excludes explicit bounds")
    if args.all and args.id:
        raise _UsageError("give either --all or --id, not both")
    if not (args.all or args.id):
        raise _UsageError("select identities with --all or --id")
    ids = verifier.registry_ids() if args.all else args.id
    with nullcontext(_write_stdout) if args.output is None else _OutputFile(args.output) as write:
        write("")  # a closed standard output fails here, before the sweep
        try:
            # the sweep validates the selection, jobs and bounds
            counts = verifier._write_sweep(ids, verifier.GridBounds(**bounds), args.jobs,
                                           args.format, write, not args.no_timestamp)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    return 1 if any(fails for _, fails, _ in counts.values()) else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
