"""pathguard command-line front-end.

Subcommands: ``canon`` (print the canonical form), ``check`` (whitelist
decision), ``verify`` (exhaustive residue sweep / preimage search), and
``diff`` (legacy-baseline differential run). Exit codes: 0 allowed/clean,
1 denied or violations found, 2 usage or input error; over a batch, 2 if any
line failed outranks 1 if any line was denied. ``diff`` exits 1 only when
traversal residue survives in a baseline output; a ``bottom_up_reach``
record alone is reported but leaves the exit code at 0. All behavior is
flag-driven; there is no environment or config-file state, and stdin and
stdout are read and written as UTF-8 with surrogateescape whatever the
locale, so one set of input bytes always gets the same answer bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Callable, Iterable, List, Optional, TextIO, Tuple

from .baseline import load_corpus, run_differential
from .canonical import _canonical_text, _jail, load_whitelist, underflows
from .model import CanonicalPath, PathError, Whitelist, validate_raw
from .verifier import (
    DEFAULT_ALPHABET,
    DEFAULT_BUDGET,
    EnumerationSpec,
    preimages_of,
    total_count,
    verify_no_residue,
)

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_USAGE = 2

# canon and check write their answers this many lines at a time: often
# enough that the first answers arrive while the batch is still being read,
# seldom enough that an unbuffered stdout does not pay a write per line.
BLOCK_LINES = 1024


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathguard",
        description="Lexical path canonicalization and whitelist checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The path arguments that canon and check share.
    paths = argparse.ArgumentParser(add_help=False)
    paths.add_argument("path", nargs="?", default=None)
    paths.add_argument("--root", help="application root to prepend first")
    paths.add_argument(
        "--strict-underflow",
        action="store_true",
        help="log '..' tokens ignored at the root (probable attacks)",
    )
    paths.add_argument(
        "--stdin", action="store_true", help="read one path per line from stdin"
    )

    sub.add_parser(
        "canon", parents=[paths], help="print the canonical form of a path"
    )

    check = sub.add_parser(
        "check", parents=[paths], help="check a path against a whitelist"
    )
    check.add_argument("--whitelist", required=True, help="whitelist file")
    check.add_argument(
        "--canonicalize-entries",
        action="store_true",
        help="auto-canonicalize whitelist entries instead of rejecting them",
    )

    verify = sub.add_parser(
        "verify", help="exhaustive sweep: residue check or preimage search"
    )
    verify.add_argument("--max-len", type=int, default=8)
    verify.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    verify.add_argument("--target", help="list preimages of this canonical path")
    verify.add_argument(
        "--format", choices=("plain", "structured"), default="plain"
    )
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    diff = sub.add_parser(
        "diff", help="differential run against the legacy de_dotdot baseline"
    )
    diff.add_argument("--corpus", required=True, help="corpus file")
    diff.add_argument(
        "--format", choices=("plain", "structured"), default="plain"
    )

    return parser


def _fail(message: str) -> int:
    print(f"pathguard: {message}", file=sys.stderr)
    return EXIT_USAGE


def _byte_exact(stream: TextIO) -> TextIO:
    """``stream``, switched to the whitelist's codec: UTF-8 with
    surrogateescape, so that every byte string reads, and writes back, as
    itself whatever the locale. Only a TextIOWrapper is switched; any other
    stream (a StringIO, say) already holds text."""
    if isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    return stream


def _input_paths(args: argparse.Namespace) -> Iterable[str]:
    """The input lines, read lazily from stdin with ``--stdin``."""
    if args.stdin:
        if args.path is not None:
            raise PathError("--stdin and a path argument are mutually exclusive")
        lines = _byte_exact(sys.stdin)
        return (line.rstrip("\n").rstrip("\r") for line in lines)
    if args.path is None:
        raise PathError("a path argument is required (or use --stdin)")
    return [args.path]


def _answer_lines(
    args: argparse.Namespace,
    root: Optional[CanonicalPath],
    answer: Callable[[str], Tuple[str, bool]],
) -> int:
    """Write ``answer(canonical text)`` for every input line, BLOCK_LINES
    at a time.

    A line is validated, put under ``root`` if there is one, and
    canonicalized. ``answer`` returns the output line and whether the path
    was denied. A line that fails validation is reported on stderr with its
    line number, gets no output, and the batch carries on. With
    ``--strict-underflow``, the ".." parts ignored at the root are counted
    by :func:`underflows` and reported on stderr with the line as sent. Exit 2
    if any line failed, else 1 if any line was denied, else 0.
    """
    write = sys.stdout.write
    strict = args.strict_underflow
    block: List[str] = []
    failed = denied = False
    try:
        for number, text in enumerate(_input_paths(args), start=1):
            try:
                path = validate_raw(text)
                if root is not None:
                    path = _jail(root, path)
            except PathError as exc:
                _fail(f"line {number}: {exc}" if args.stdin else str(exc))
                failed = True
                continue
            if strict:
                ignored = underflows(path)
                if ignored:
                    warning = (
                        f"{ignored} parent reference(s) ignored at the root"
                        f" in {text!r}"
                    )
                    if args.stdin:
                        warning = f"line {number}: {warning}"
                    print(f"pathguard: {warning}", file=sys.stderr)
            line, deny = answer(_canonical_text(path))
            block.append(line)
            denied = denied or deny
            if len(block) == BLOCK_LINES:
                write("".join(block))
                block.clear()
    except (PathError, ValueError) as exc:  # no input, or unreadable stdin
        _fail(str(exc))
        failed = True
    write("".join(block))
    if failed:
        return EXIT_USAGE
    return EXIT_DENIED if denied else EXIT_OK


def _cmd_canon(args: argparse.Namespace) -> int:
    try:
        root = None if args.root is None else CanonicalPath(args.root)
    except ValueError as exc:
        return _fail(str(exc))
    return _answer_lines(args, root, lambda text: (text + "\n", False))


def _open_lines(path: str) -> TextIO:
    """A whitelist or corpus file, read with the whitelist's codec and with
    lines that end at "\\n" only, as ``--stdin`` reads them."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="\n")


def _load_whitelist_file(args: argparse.Namespace) -> Whitelist:
    with _open_lines(args.whitelist) as fh:
        return load_whitelist(fh, canonicalize_entries=args.canonicalize_entries)


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        root = None if args.root is None else CanonicalPath(args.root)
        entries = _load_whitelist_file(args).entries
    except (OSError, PathError, ValueError) as exc:
        return _fail(str(exc))

    def decide(canonical: str) -> Tuple[str, bool]:
        if canonical in entries:
            return "ALLOW " + canonical + "\n", False
        return "DENY " + canonical + "\n", True

    return _answer_lines(args, root, decide)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        spec = EnumerationSpec(alphabet=args.alphabet, max_len=args.max_len)
    except ValueError as exc:
        return _fail(str(exc))
    started = time.monotonic()
    try:
        if args.target is not None:
            target = CanonicalPath(args.target)
            hits = preimages_of(spec, target, budget=args.budget)
            elapsed_ms = int((time.monotonic() - started) * 1000)
            if args.format == "structured":
                doc = {
                    "mode": "preimages",
                    "target": target,
                    "preimages": hits,
                    "summary": {
                        "visited": total_count(spec),
                        "count": len(hits),
                        "elapsed_ms": elapsed_ms,
                    },
                }
                print(json.dumps(doc))
            else:
                for hit in hits:
                    print(hit)
                print(f"{len(hits)} preimages of {target}")
            return EXIT_OK
        violations = verify_no_residue(spec, budget=args.budget)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        if args.format == "structured":
            doc = {
                "mode": "no-residue",
                "violations": [
                    {"input": v.input, "output": v.output, "offending": v.offending}
                    for v in violations
                ],
                "summary": {
                    "visited": total_count(spec),
                    "violations": len(violations),
                    "elapsed_ms": elapsed_ms,
                },
            }
            print(json.dumps(doc))
        else:
            for v in violations:
                print(f"{v.input} -> {v.output} [{v.offending}]")
            print(f"{len(violations)} violations / {total_count(spec)} visited")
        return EXIT_OK if not violations else EXIT_DENIED
    except (PathError, ValueError) as exc:
        return _fail(str(exc))


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        with _open_lines(args.corpus) as fh:
            corpus = load_corpus(fh)
    except (OSError, PathError) as exc:
        return _fail(str(exc))
    started = time.monotonic()
    records = run_differential(corpus)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.format == "structured":
        doc = {
            "mode": "diff",
            "records": [
                {
                    "input": r.input.text,
                    "baseline_output": r.baseline_output,
                    "canonical_output": r.canonical_output.text,
                    "residue_found": list(r.residue_found),
                    "bottom_up_reach": r.bottom_up_reach,
                }
                for r in records
            ],
            "summary": {
                "inputs": len(corpus),
                "divergences": len(records),
                "elapsed_ms": elapsed_ms,
            },
        }
        print(json.dumps(doc))
    else:
        for r in records:
            residue = ",".join(r.residue_found) or "-"
            reach = " bottom-up-reach" if r.bottom_up_reach else ""
            print(
                f"{r.input.text} | baseline={r.baseline_output} "
                f"| canonical={r.canonical_output.text} | residue={residue}{reach}"
            )
        print(f"{len(records)} divergences / {len(corpus)} inputs")
    flagged = any(r.residue_found for r in records)
    return EXIT_DENIED if flagged else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    _byte_exact(sys.stdout)
    args = _build_parser().parse_args(argv)
    handlers = {
        "canon": _cmd_canon,
        "check": _cmd_check,
        "verify": _cmd_verify,
        "diff": _cmd_diff,
    }
    return handlers[args.command](args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
