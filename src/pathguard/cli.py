"""pathguard command-line front-end.

Subcommands: ``canon`` (print the canonical form), ``check`` (whitelist
decision), ``verify`` (exhaustive residue sweep / preimage search), and
``diff`` (legacy-baseline differential run). Exit codes: 0 allowed/clean,
1 denied or violations found, 2 usage or input error, a ``verify`` sweep
that failed (a shard, fork or pipe failed, or the oracle disagreed), a
failed write to either output (its reader closed it, or it cannot be
written; no traceback, one ``pathguard:`` line if it was stdout), a failed
stdin read, or a closed stdout, or stdin under ``--stdin`` (one line,
before stdin is read or a sweep starts); over a batch, 2 if any line
failed outranks 1 if any line was denied. ``diff`` exits 1 only when
traversal residue survives in a baseline output; a ``bottom_up_reach``
record alone is reported but leaves the exit code at 0.
All behavior is flag-driven; there is no environment or config-file
state. Stdin is read, and stdout and stderr are written, as bytes in the
whitelist's codec whatever the locale, so one set of input bytes always
gets the same answer and report bytes, and the ``sys`` streams are left as
they were. Once its answers are flushed, the ``pathguard`` command
(:func:`run`) runs the process's exit handlers and ends with ``os._exit``,
with no interpreter teardown. So a profiler wrapped around
``python -m pathguard.cli`` (such as ``-m cProfile``) prints nothing;
profile by calling :func:`main` in-process, as ``bench/layers.py`` does.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import time
from codecs import getincrementaldecoder
from itertools import count
from typing import Iterator, List, Optional, TextIO, Tuple

from .baseline import load_corpus, run_differential
from .canonical import _canonical_texts, load_whitelist, underflows
from .model import CanonicalPath, PathError, RawPathString, Whitelist
from .model import _all_checked, _checked, _new
from .verifier import (
    DEFAULT_ALPHABET,
    EnumerationSpec,
    preimages_of,
    total_count,
    verify_no_residue,
)

EXIT_OK, EXIT_DENIED, EXIT_USAGE = 0, 1, 2

# The whitelist's codec, in which any bytes read, and write back, as themselves.
ENCODING, ERRORS = "utf-8", "surrogateescape"
READ_BYTES = 1 << 16  # the most that --stdin reads at a time


class _Parser(argparse.ArgumentParser):
    """argparse's usage, error and help text, byte-exact through :func:`_write`."""

    def _print_message(self, message: str, file: Optional[TextIO] = None) -> None:
        if message:
            _write(file or sys.stderr, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    ).set_defaults(run=_cmd_paths, whitelist=None)

    check = sub.add_parser(
        "check", parents=[paths], help="check a path against a whitelist"
    )
    check.set_defaults(run=_cmd_paths)
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
    _write(sys.stderr, f"pathguard: {message}\n")
    return EXIT_USAGE


def _stdin_blocks(stdin: TextIO) -> Iterator[List[str]]:
    """``stdin``'s lines, a block for each read that completes one or more:
    each line ends at "\\n", dropped with any "\\r"s before it, and so may
    the last. A stdin without a byte layer (a StringIO, say) is read as the
    text it holds."""
    if hasattr(stdin, "buffer"):
        read = stdin.buffer.read1
        decode = getincrementaldecoder(ENCODING)(ERRORS).decode
    else:
        read, decode = stdin.read, lambda text, final: text
    # The text since the last "\n", in pieces: joined only by a read that
    # ends a line, so a long line costs time linear in its length.
    carry = []
    while chunk := read(READ_BYTES):
        carry.append(decode(chunk, False))
        if "\n" not in carry[-1]:
            continue
        text = "".join(carry)
        lines = text.split("\n")
        carry = [lines.pop()]
        if "\r" in text:
            lines = [line.rstrip("\r") for line in lines]
        yield lines
    if last := "".join(carry) + decode(chunk, True):
        yield [last.rstrip("\r")]


def _write(stream: Optional[TextIO], text: str) -> None:
    """Write ``text`` to ``stream``'s byte layer in the whitelist's codec,
    after its text layer, until every byte is taken (a raw file, unbuffered,
    may take fewer), then flush it for a caller who waits. Else write the
    text. A closed stream (``None``) takes nothing, so error text is
    dropped with stderr closed, and never goes to stdout."""
    if stream is None:
        return
    if hasattr(stream, "buffer"):
        stream.flush()
        data = memoryview(text.encode(ENCODING, ERRORS))
        while data:
            data = data[stream.buffer.write(data) :]
        stream.buffer.flush()
    else:
        stream.write(text)


def _open_lines(path: str) -> TextIO:
    """A whitelist or corpus file, read in the whitelist's codec."""
    return open(path, encoding=ENCODING, errors=ERRORS)


def _answers(
    blocks: Iterator[List[str]], numbered: bool, root: Optional[str],
    whitelist: Optional[Whitelist], strict: bool,
) -> Iterator[Tuple[str, str, int]]:
    """Decide each block of lines as ``canon`` (each line's canonical text)
    or as ``check`` (that text after ``ALLOW `` or ``DENY `` by
    ``whitelist``): yield its stdout text, its stderr text and its exit code
    before the next block is read. Nothing is written here.

    A block's lines are put under ``root`` if there is one, held to the NUL
    and length rule in one check over the jailed paths, and the paths kept
    are canonicalized in one ``map`` of ``_canonical_texts``, the form the
    verifier's sweeps certify. A block that fails the check, or any block
    under ``strict``, is also walked line by line: each failing line is
    dropped and named (by number if ``numbered``), and under ``strict`` each
    line with ".." reports, as sent, the parts ignored at the root that
    :func:`underflows` counts (normpath, not the stack walk), in line order.
    The code is 2 if a line failed, else 1 if a path was denied, else 0. A
    block that cannot be read yields one error line and code 2, and ends
    the answers.
    """
    at = "pathguard: line {}: " if numbered else "pathguard: "
    first = 1
    while True:
        try:
            block = next(blocks, [])
        except (OSError, ValueError) as exc:  # unreadable stdin; earlier reads answered
            yield "", f"pathguard: {exc}\n", EXIT_USAGE
            return
        if not block:
            return
        paths = block if root is None else [root + "/" + line for line in block]
        checked = _all_checked(paths)
        kept = paths if checked else []
        reports = []
        if not checked or strict:
            for text, path, number in zip(block, paths, count(first)):
                if not checked:
                    try:
                        _checked(text)
                        if root is not None:
                            _checked(path, "jailed path")
                    except PathError as exc:
                        reports.append(f"{at.format(number)}{exc}\n")
                        continue
                    kept.append(path)
                if (
                    strict
                    and ".." in path
                    and (ignored := underflows(_new(RawPathString, path)))
                ):
                    reports.append(
                        f"{at.format(number)}{ignored} parent reference(s) ignored"
                        f" at the root in {text!r}\n"
                    )
        code = EXIT_USAGE if len(kept) < len(paths) else EXIT_OK
        answers = list(_canonical_texts(kept))
        if whitelist is not None:
            allowed = list(map(whitelist.__contains__, answers))
            if not (code or all(allowed)):
                code = EXIT_DENIED
            answers = [
                ("ALLOW " if ok else "DENY ") + t for ok, t in zip(allowed, answers)
            ]
        answers.append("")
        yield "\n".join(answers), "".join(reports), code
        first += len(block)


def _one_line(text: Optional[str], what: str) -> Optional[str]:
    """``text`` as given, or ValueError naming it as ``what`` if it holds a
    "\\n": each answer is one line of stdout, and a "\\n" would forge more.
    No ``--stdin`` line or whitelist entry can hold one."""
    if text is not None and "\n" in text:
        raise ValueError(f"{what} contains a newline")
    return text


def _cmd_paths(args: argparse.Namespace) -> int:
    """Set up ``canon`` or ``check`` from ``args``, then write each block's
    texts from :func:`_answers`, stderr first, and exit with the worst code."""
    try:
        path = _one_line(args.path, "path")
        root = _one_line(args.root, "--root")
        root = None if root is None else CanonicalPath(_checked(root, "--root"))
        whitelist = None
        if args.whitelist is not None:
            with _open_lines(args.whitelist) as fh:
                whitelist = load_whitelist(
                    fh, canonicalize_entries=args.canonicalize_entries
                )
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.stdin and path is not None:
        return _fail("--stdin and a path argument are mutually exclusive")
    if not args.stdin and path is None:
        return _fail("a path argument is required (or use --stdin)")
    blocks = _stdin_blocks(sys.stdin) if args.stdin else iter([[path]])
    worst = EXIT_OK
    answers = _answers(blocks, args.stdin, root, whitelist, args.strict_underflow)
    for out, err, code in answers:
        if err:
            _write(sys.stderr, err)
        _write(sys.stdout, out)
        if code > worst:  # the max: 2 outranks 1 outranks 0
            worst = code
    return worst


def _hex(text: object) -> Optional[str]:
    """The bytes of ``text`` in hex if it is a string that does not encode
    as UTF-8, else None. Such a string holds an input byte that was not
    UTF-8, read in the whitelist's codec as a lone surrogate."""
    if isinstance(text, str):
        try:
            text.encode(ENCODING)
        except UnicodeEncodeError:
            return text.encode(ENCODING, ERRORS).hex()
    return None


def _utf8_fields(doc: dict) -> dict:
    """``doc`` with each string that does not encode as UTF-8 made null and
    its bytes put in hex under the sibling key ``<field>_hex``: for a string
    field, the hex string; for a list field, a list of the same length with
    the hex at that string's index and null elsewhere. Nested documents, and
    lists of them, follow the same rule. A document whose strings all
    encode comes back equal."""
    out = {}
    for key, value in doc.items():
        hexed = None
        if isinstance(value, dict):
            value = _utf8_fields(value)
        elif isinstance(value, (list, tuple)):
            value = [_utf8_fields(v) if isinstance(v, dict) else v for v in value]
            hexed = list(map(_hex, value))
            if any(hexed):
                value = [None if h else v for v, h in zip(value, hexed)]
            else:
                hexed = None
        elif hexed := _hex(value):
            value = None
        out[key] = value
        if hexed:
            out[key + "_hex"] = hexed
    return out


def _report(args: argparse.Namespace, doc: dict, lines: list, started: float) -> None:
    """Put the time since ``started`` in ``doc["summary"]``, then write
    ``doc`` as one JSON line with ``--format structured``, else ``lines``.
    JSON holds text, so a string that is not UTF-8 goes out in hex."""
    doc["summary"]["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "structured":
        import json  # only here: canon and check never load it
        lines = [json.dumps(_utf8_fields(doc))]
    _write(sys.stdout, "\n".join(lines) + "\n")


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
    except (ValueError, RuntimeError, AssertionError, OSError) as exc:
        # A failed shard, fork or pipe, or an oracle divergence, is a failed
        # sweep, not a violation found.
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
    args = _build_parser().parse_args(argv)
    # Python sets a stream to None when its file descriptor is closed.
    if sys.stdout is None:
        return _fail("stdout is closed")
    if getattr(args, "stdin", False) and sys.stdin is None:
        return _fail("stdin is closed")
    return args.run(args)


def run() -> None:
    """The ``pathguard`` command: :func:`main` on ``sys.argv``, then the
    process ends. Once the answers are flushed, the exit handlers that other
    code registered (site hooks, coverage) run, and ``os._exit`` ends the
    process without Python's teardown of its modules and objects, which
    would cost each run more than its answers do. So a profiler wrapped
    around the command prints nothing: profile :func:`main` in-process.
    argparse's ``SystemExit`` (a usage error, ``--help``) exits as usual."""
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # An output failed: its reader is gone (``| head``, say) or it
        # cannot be written (EBADF). Only a failed stdout can be reported:
        # a failed stderr takes the report with it.
        try:
            code = _fail(f"stdout: {exc.strerror}")
        except OSError:
            code = EXIT_USAGE
    atexit._run_exitfuncs()
    try:  # what the handlers wrote; a stream that failed stays unreported
        for stream in (sys.stderr, sys.stdout):
            if stream is not None:
                stream.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
