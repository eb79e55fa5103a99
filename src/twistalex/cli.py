"""Command line front end.

    twistalex compute <job-file> [--format text|records] [--seed N]
    twistalex check   <job-file> [--format text|records] [--seed N]
    twistalex builders
    twistalex corpus  <dir>      [--format text|records] [--seed N]

Exit codes: 0 success, 1 check failure, 2 input error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .jobs import (
    EXIT_INPUT_ERROR,
    JobParseError,
    _BUILDERS,
    _read_job,
    parse_job,
    run_corpus,
    run_job,
)


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "records"), default="text")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistalex",
        description="Twisted Alexander polynomial computations on finitely presented groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run one job file and report")
    p_compute.add_argument("job", type=Path)
    _add_common(p_compute)

    p_check = sub.add_parser("check", help="run one job file with the assertion battery")
    p_check.add_argument("job", type=Path)
    _add_common(p_check)

    sub.add_parser("builders", help="list presentation builders")

    p_corpus = sub.add_parser("corpus", help="check every *.job file in a directory")
    p_corpus.add_argument("directory", type=Path)
    _add_common(p_corpus)

    return parser


def _run_file(path: Path, mode: str, fmt: str, seed: int) -> int:
    try:
        spec = parse_job(_read_job(path))
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except JobParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report, code = run_job(spec, mode=mode, fmt=fmt, seed=seed)
    sys.stdout.write(report)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("compute", "check"):
        return _run_file(args.job, args.command, args.format, args.seed)
    if args.command == "builders":
        width = max(map(len, _BUILDERS))
        for name in sorted(_BUILDERS):
            print(f"{name:{width}}  {_BUILDERS[name][1]}")
        return 0
    if args.command == "corpus":
        if not args.directory.is_dir():
            print(f"not a directory: {args.directory}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        paths = sorted(args.directory.glob("*.job"))
        if not paths:
            print(f"no *.job files in {args.directory}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        report, code = run_corpus(paths, fmt=args.format, seed=args.seed)
        sys.stdout.write(report)
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
