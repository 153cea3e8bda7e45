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
import sys
import time
from typing import Callable, Iterable, List, Optional, TextIO, Tuple

from .baseline import load_corpus, run_differential
from .canonical import _canonical_text, load_whitelist, underflows
from .model import CanonicalPath, PathError, RawPathString, _checked, _new
from .verifier import (
    DEFAULT_ALPHABET,
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
        help="report on stderr the count of '..' parts ignored at the root "
        "(probable attacks)",
    )
    paths.add_argument(
        "--stdin", action="store_true", help="read one path per line from stdin"
    )

    # The report format that verify and diff share.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("plain", "structured"), default="plain")

    sub.add_parser(
        "canon", parents=[paths], help="print the canonical form of a path"
    ).set_defaults(run=_cmd_canon)

    check = sub.add_parser(
        "check", parents=[paths], help="check a path against a whitelist"
    )
    check.set_defaults(run=_cmd_check)
    check.add_argument("--whitelist", required=True, help="whitelist file")
    check.add_argument(
        "--canonicalize-entries",
        action="store_true",
        help="auto-canonicalize whitelist entries instead of rejecting them",
    )

    verify = sub.add_parser(
        "verify",
        parents=[report],
        help="exhaustive sweep: residue check or preimage search",
    )
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--max-len", type=int, default=8)
    verify.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    verify.add_argument("--target", help="list preimages of this canonical path")

    diff = sub.add_parser(
        "diff",
        parents=[report],
        help="differential run against the legacy de_dotdot baseline",
    )
    diff.set_defaults(run=_cmd_diff)
    diff.add_argument("--corpus", required=True, help="corpus file")

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

    A line is checked, put under ``root`` if there is one, and
    canonicalized, all as plain text. ``answer`` returns the output line
    and whether the path was denied. A line that fails its checks is
    reported on stderr with its line number, gets no output, and the batch
    carries on. With ``--strict-underflow``, the ".." parts ignored at the
    root are counted by :func:`underflows` and reported on stderr with the
    line as sent. Exit 2 if any line failed, else 1 if any line was denied,
    else 0.
    """
    write = sys.stdout.write
    strict = args.strict_underflow
    block: List[str] = []
    failed = denied = False
    try:
        for number, text in enumerate(_input_paths(args), start=1):
            try:
                path = _checked(text)
                if root is not None:
                    path = _checked(root + "/" + path, "jailed path")
            except PathError as exc:
                _fail(f"line {number}: {exc}" if args.stdin else str(exc))
                failed = True
                continue
            if strict:
                ignored = underflows(_new(RawPathString, path))
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
    """A whitelist or corpus file, read with the whitelist's codec. The
    loaders end its lines at "\\n" only, as ``--stdin`` reads them."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        root = None if args.root is None else CanonicalPath(args.root)
        with _open_lines(args.whitelist) as fh:
            whitelist = load_whitelist(
                fh, canonicalize_entries=args.canonicalize_entries
            )
    except (OSError, PathError, ValueError) as exc:
        return _fail(str(exc))

    def decide(canonical: str) -> Tuple[str, bool]:
        if canonical in whitelist:
            return "ALLOW " + canonical + "\n", False
        return "DENY " + canonical + "\n", True

    return _answer_lines(args, root, decide)


def _report(args: argparse.Namespace, doc: dict, lines: list, started: float) -> None:
    """Put the time since ``started`` in ``doc["summary"]``, then print
    ``doc`` as one JSON line with ``--format structured``, else ``lines``."""
    doc["summary"]["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "structured":
        import json  # only here: canon and check never load it
        print(json.dumps(doc))
    else:
        print("\n".join(lines))


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        spec = EnumerationSpec(alphabet=args.alphabet, max_len=args.max_len)
        started = time.monotonic()
        if args.target is None:
            found = verify_no_residue(spec)
            visited = total_count(spec)
            doc = {"mode": "no-residue", "violations": [v._asdict() for v in found]}
            doc["summary"] = {"visited": visited, "violations": len(found)}
            lines = [f"{v.input} -> {v.output} [{v.offending}]" for v in found]
            lines.append(f"{len(found)} violations / {visited} visited")
        else:
            target = CanonicalPath(args.target)
            found = preimages_of(spec, target)
            doc = {"mode": "preimages", "target": target, "preimages": found}
            doc["summary"] = {"visited": total_count(spec), "count": len(found)}
            lines = [*found, f"{len(found)} preimages of {target}"]
    except (PathError, ValueError) as exc:
        return _fail(str(exc))
    _report(args, doc, lines, started)
    return EXIT_DENIED if args.target is None and found else EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        with _open_lines(args.corpus) as fh:
            corpus = load_corpus(fh)
    except (OSError, PathError) as exc:
        return _fail(str(exc))
    started = time.monotonic()
    records = run_differential(corpus)
    doc = {"mode": "diff", "records": [r._asdict() for r in records]}
    doc["summary"] = {"inputs": len(corpus), "divergences": len(records)}
    lines = [
        f"{r.input} | baseline={r.baseline_output} | canonical={r.canonical_output}"
        f" | residue={','.join(r.residue_found) or '-'}"
        f"{' bottom-up-reach' if r.bottom_up_reach else ''}"
        for r in records
    ]
    lines.append(f"{len(records)} divergences / {len(corpus)} inputs")
    _report(args, doc, lines, started)
    return EXIT_DENIED if any(r.residue_found for r in records) else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    _byte_exact(sys.stdout)
    args = _build_parser().parse_args(argv)
    return args.run(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
