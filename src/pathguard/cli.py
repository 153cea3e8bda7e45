"""pathguard command-line front-end.

Subcommands: ``canon`` (print the canonical form), ``check`` (whitelist
decision), ``verify`` (exhaustive residue sweep / preimage search), and
``diff`` (legacy-baseline differential run). Exit codes: 0 allowed/clean,
1 denied or violations found, 2 usage or input error or a ``verify`` sweep
that failed (a shard, fork or pipe failed, or the oracle disagreed); over a
batch, 2 if any line failed outranks 1 if any line was denied. ``diff``
exits 1 only when traversal residue survives in a baseline output; a
``bottom_up_reach`` record alone is reported but leaves the exit code at 0.
All behavior is flag-driven; there is no environment or config-file
state, and stdin and stdout are read and written as UTF-8 with
surrogateescape whatever the locale, so one set of input bytes always gets
the same answer bytes.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from itertools import count, islice
from typing import Callable, Iterable, List, Optional, TextIO, Tuple

from .baseline import load_corpus, run_differential
from .canonical import _canonical_texts, load_whitelist, underflows
from .model import CanonicalPath, PathError, RawPathString, _all_checked, _checked, _new
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

# canon and check answer this many input lines at a time: often enough
# that the first answers arrive while the batch is still being read, seldom
# enough that the bulk check and a write to stdout are paid once a block.
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
    """The input lines: stdin, read lazily and with its line endings, with
    ``--stdin``; else the one path argument."""
    if args.stdin:
        if args.path is not None:
            raise PathError("--stdin and a path argument are mutually exclusive")
        return _byte_exact(sys.stdin)
    if args.path is None:
        raise PathError("a path argument is required (or use --stdin)")
    return [args.path]


def _answer_lines(
    args: argparse.Namespace,
    lines: Iterable[str],
    root: Optional[CanonicalPath],
    answer: Callable[[List[str]], Tuple[str, bool]],
) -> int:
    """Write ``answer(canonical texts)``, a block's output and whether it
    denied a path, for ``lines``, BLOCK_LINES at a time.

    A block's lines are put under ``root`` if there is one, held to the NUL
    and length rule in one check over the jailed paths (each holds its
    line), and the paths kept are canonicalized in one ``map`` of
    ``_canonical_texts``, the form the verifier's sweeps certify. A block
    that fails the check, or any block under ``--strict-underflow``, is
    also taken line by line, only to report and filter: a block that failed
    drops each failing line, naming it by number, and under the flag the
    lines that hold ".." report the parts ignored at the root with the line
    as sent. A block's stderr lines go out in line order, in one write.
    :func:`underflows` counts them with the same normpath that computes the
    texts; the stack walk does not run. Exit 2 if any line failed or stdin
    could not be read, else 1 if any path was denied, else 0.
    """
    failed = denied = False
    error: Optional[ValueError] = None
    for first in count(1, BLOCK_LINES):
        block: List[str] = []
        try:
            block.extend(islice(lines, BLOCK_LINES))  # keeps what it read
        except ValueError as exc:  # unreadable stdin
            error = exc
        if args.stdin:
            block = [line.rstrip("\n").rstrip("\r") for line in block]
        paths = block if root is None else [root + "/" + line for line in block]
        checked = _all_checked(paths)
        kept = paths if checked else []
        if not checked or args.strict_underflow:
            at = "pathguard: line {}: " if args.stdin else "pathguard: "
            reports = []
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
                    args.strict_underflow
                    and ".." in path
                    and (ignored := underflows(_new(RawPathString, path)))
                ):
                    reports.append(
                        f"{at.format(number)}{ignored} parent reference(s) ignored"
                        f" at the root in {text!r}\n"
                    )
            sys.stderr.write("".join(reports))
            failed = failed or len(kept) < len(paths)
        texts = list(_canonical_texts(kept))
        out, deny = answer(texts) if texts else ("", False)
        sys.stdout.write(out)
        denied = denied or deny
        if error is not None or len(block) < BLOCK_LINES:
            break
    if error is not None:
        return _fail(str(error))
    if failed:
        return EXIT_USAGE
    return EXIT_DENIED if denied else EXIT_OK


def _cmd_canon(args: argparse.Namespace) -> int:
    try:
        root = None if args.root is None else CanonicalPath(args.root)
        lines = _input_paths(args)
    except ValueError as exc:
        return _fail(str(exc))
    return _answer_lines(args, lines, root, lambda t: ("\n".join(t) + "\n", False))


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
        lines = _input_paths(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    def decide(texts: List[str]) -> Tuple[str, bool]:
        answers = [("ALLOW " if t in whitelist else "DENY ") + t for t in texts]
        return "\n".join(answers) + "\n", not whitelist.issuperset(texts)

    return _answer_lines(args, lines, root, decide)


def _hex(text: object) -> Optional[str]:
    """The bytes of ``text`` in hex if it is a string that does not encode
    as UTF-8, else None. Such a string holds an input byte that was not
    UTF-8, read with surrogateescape as a lone surrogate."""
    if isinstance(text, str):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return text.encode("utf-8", "surrogateescape").hex()
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
    """Put the time since ``started`` in ``doc["summary"]``, then print
    ``doc`` as one JSON line with ``--format structured``, else ``lines``.
    JSON holds text, so a string that is not UTF-8 text goes out as its
    bytes in hex; see ``_utf8_fields``."""
    doc["summary"]["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "structured":
        import json  # only here: canon and check never load it
        print(json.dumps(_utf8_fields(doc)))
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
    _byte_exact(sys.stdout)
    args = _build_parser().parse_args(argv)
    return args.run(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
