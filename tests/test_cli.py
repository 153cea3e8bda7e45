import io
import json
import os
import re
import subprocess
import sys

import pytest

import pathguard
from pathguard import CanonicalPath, canonical, canonicalize, underflows, validate_raw
from pathguard import verifier as verifier_module
from pathguard.canonical import _canonical_texts
from pathguard.cli import BLOCK_LINES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bytes(monkeypatch, *argv):
    """``main(argv)`` with stdout on a byte buffer, which keeps output that
    is not UTF-8 as it is. Returns the exit code and stdout's bytes."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr("sys.stdout", stdout)
    code = main(list(argv))
    stdout.flush()
    return code, stdout.buffer.getvalue()


def assert_document(out, want):
    """``out`` is ``want`` as one JSON line, byte for byte and key order
    included, whatever its ``elapsed_ms``."""
    elapsed_ms = json.loads(out)["summary"]["elapsed_ms"]
    assert isinstance(elapsed_ms, int) and elapsed_ms >= 0
    want["summary"]["elapsed_ms"] = elapsed_ms
    assert out == json.dumps(want) + "\n"


def _bytes_of(doc, field):
    """A structured document's ``field`` as bytes: its text in UTF-8 or,
    where the text is null, the bytes in ``<field>_hex``; for a list field,
    the list of each string's bytes."""

    def one(text, hexed):
        return text.encode("utf-8") if text is not None else bytes.fromhex(hexed)

    value, hexed = doc[field], doc.get(field + "_hex")
    if isinstance(value, list):
        return list(map(one, value, hexed or [None] * len(value)))
    return one(value, hexed)


class TestCanon:
    def test_repeated_separators(self, capsys):
        code, out, _ = run(capsys, "canon", "//a//b/c")
        assert (code, out) == (0, "/a/b/c\n")

    def test_empty_path_is_root(self, capsys):
        code, out, _ = run(capsys, "canon", "")
        assert (code, out) == (0, "/\n")

    def test_root_flag_jails_then_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "canon", "--root", "/srv/www", "../x")
        assert (code, out) == (0, "/srv/x\n")

    def test_climb_out_of_root(self, capsys):
        code, out, _ = run(
            capsys, "canon", "--root", "/srv/www", "../../etc/passwd"
        )
        assert (code, out) == (0, "/etc/passwd\n")

    def test_root_of_slash_adds_nothing(self, capsys):
        code, out, _ = run(capsys, "canon", "--root", "/", "a")
        assert (code, out) == (0, "/a\n")

    def test_combined_overflow_is_usage_error(self, capsys):
        # The root and the path each fit; joined they do not.
        root = "/" + "r" * 4090
        code, out, err = run(capsys, "canon", "--root", root, "a" * 10)
        assert (code, out) == (2, "")
        assert err == "pathguard: jailed path length 4102 exceeds limit 4096\n"

    def test_jailed_path_at_the_limit_is_accepted(self, capsys):
        root = "/" + "r" * 4090
        code, out, _ = run(capsys, "canon", "--root", root, "a" * 4)
        assert (code, out) == (0, root + "/aaaa\n")

    def test_strict_underflow_under_root_logs_the_climb(self):
        # A child process, so the warning is read from a real stderr, which
        # the CLI writes to directly. "/srv/../../../etc" climbs above the
        # root twice.
        src = os.path.dirname(os.path.dirname(pathguard.__file__))
        argv = ["canon", "--root", "/srv", "--strict-underflow", "../../../etc"]
        done = subprocess.run(
            [sys.executable, "-m", "pathguard.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "/etc\n")
        assert "2 parent reference(s) ignored at the root" in done.stderr

    def test_strict_underflow_quotes_the_line_as_sent(self, capsys):
        code, out, err = run(
            capsys, "canon", "--root", "/srv", "--strict-underflow", "../../../etc"
        )
        assert (code, out) == (0, "/etc\n")
        assert err == (
            "pathguard: 2 parent reference(s) ignored at the root in '../../../etc'\n"
        )

    def test_strict_underflow_names_the_stdin_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("/ok\n../x\n/etc../\n/a/../../b\n"))
        code, out, err = run(capsys, "canon", "--stdin", "--strict-underflow")
        assert (code, out) == (0, "/ok\n/x\n/etc..\n/b\n")
        assert err.splitlines() == [
            "pathguard: line 2: 1 parent reference(s) ignored at the root in '../x'",
            "pathguard: line 4: 1 parent reference(s) ignored at the root in '/a/../../b'",
        ]

    def test_nul_is_usage_error(self, capsys):
        code, out, err = run(capsys, "canon", "/a\x00b")
        assert code == 2
        assert out == ""
        assert "NUL" in err

    def test_too_long_is_usage_error(self, capsys):
        code, _, err = run(capsys, "canon", "a" * 4097)
        assert code == 2
        assert "exceeds" in err

    def test_non_canonical_root_is_usage_error(self, capsys):
        code, _, err = run(capsys, "canon", "--root", "srv/", "a")
        assert code == 2
        assert "canonical" in err

    def test_stdin_batch_mode(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("//a\n./b\r\n"))
        code, out, _ = run(capsys, "canon", "--stdin")
        assert (code, out) == (0, "/a\n/b\n")

    def test_missing_path_without_stdin(self, capsys):
        code, _, err = run(capsys, "canon")
        assert code == 2
        assert "path" in err

    def test_output_composes_as_identity(self, capsys):
        code, out, _ = run(capsys, "canon", "a/.//b/c")
        code2, out2, _ = run(capsys, "canon", out.strip())
        assert (code, code2) == (0, 0)
        assert out == out2


@pytest.fixture
def whitelist_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("/a/b/c\n")
    return str(path)


class TestCheck:
    def test_allow(self, capsys, whitelist_file):
        code, out, _ = run(capsys, "check", "--whitelist", whitelist_file, "./a/b/c")
        assert (code, out) == (0, "ALLOW /a/b/c\n")

    def test_deny(self, capsys, whitelist_file):
        code, out, _ = run(
            capsys, "check", "--whitelist", whitelist_file, "/etc/passwd"
        )
        assert (code, out) == (1, "DENY /etc/passwd\n")

    def test_empty_whitelist_default_deny(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run(capsys, "check", "--whitelist", str(empty), "/")
        assert (code, out) == (1, "DENY /\n")

    def test_non_canonical_entry_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a/b/\n")
        code, _, err = run(capsys, "check", "--whitelist", str(bad), "/a")
        assert code == 2
        assert "line 1" in err

    def test_canonicalize_entries_flag(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a/b/\n")
        code, out, _ = run(
            capsys,
            "check",
            "--whitelist",
            str(bad),
            "--canonicalize-entries",
            "/a/b",
        )
        assert (code, out) == (0, "ALLOW /a/b\n")

    def test_strict_underflow_flag(self, capsys, whitelist_file):
        argv = ["check", "--whitelist", whitelist_file, "../../a/b/c"]
        code, out, err = run(capsys, *argv, "--strict-underflow")
        assert (code, out) == (0, "ALLOW /a/b/c\n")
        assert err == (
            "pathguard: 2 parent reference(s) ignored at the root in '../../a/b/c'\n"
        )
        assert run(capsys, *argv) == (0, "ALLOW /a/b/c\n", "")

    def test_whitelist_lines_end_at_newline_only(self, capsys, monkeypatch, tmp_path):
        # A "\r" inside a line is part of the path, on stdin and in the file.
        wl = tmp_path / "w.txt"
        wl.write_bytes(b"/a\rb\n/c\r\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("/a\rb\n/c\n/b\n"))
        code, out, err = run(capsys, "check", "--whitelist", str(wl), "--stdin")
        assert (code, out, err) == (1, "ALLOW /a\rb\nALLOW /c\nDENY /b\n", "")

    @pytest.mark.parametrize(
        "line,reason",
        [
            (b"/b\x00", "path contains a NUL byte"),
            (b"/" + b"b" * 4096, "path length 4097 exceeds limit 4096"),
        ],
        ids=["nul", "too-long"],
    )
    def test_invalid_whitelist_line_names_its_line(
        self, capsys, tmp_path, line, reason
    ):
        wl = tmp_path / "w.txt"
        wl.write_bytes(b"/a\n" + line + b"\n")
        code, out, err = run(capsys, "check", "--whitelist", str(wl), "/a")
        assert (code, out) == (2, "")
        assert err == f"pathguard: whitelist line 2: {reason}\n"

    def test_unreadable_whitelist_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check", "--whitelist", str(tmp_path / "missing.txt"), "/a"
        )
        assert code == 2

    def test_root_is_prepended_before_the_lookup(self, capsys, whitelist_file):
        code, out, _ = run(
            capsys, "check", "--whitelist", whitelist_file, "--root", "/a", "b/c"
        )
        assert (code, out) == (0, "ALLOW /a/b/c\n")

    def test_climb_out_of_root_is_denied(self, capsys, whitelist_file):
        code, out, _ = run(
            capsys, "check", "--whitelist", whitelist_file,
            "--root", "/a/b", "../../../etc/passwd",
        )
        assert (code, out) == (1, "DENY /etc/passwd\n")

    def test_stdin_batch_exit_code(self, capsys, monkeypatch, whitelist_file):
        monkeypatch.setattr("sys.stdin", io.StringIO("/a/b/c\n/nope\n"))
        code, out, _ = run(capsys, "check", "--whitelist", whitelist_file, "--stdin")
        assert code == 1
        assert out == "ALLOW /a/b/c\nDENY /nope\n"


def batch_lines(n):
    """``n`` input lines of every kind: allowed, denied, climbing, CRLF."""
    kinds = ["/a/b/c", "./a/b/c", "../../a/b/c/", "/a//b/./c/d/..", "/etc/passwd",
             "x/../../y", "", "//", "a/b/c\r"]
    return [kinds[i % len(kinds)] + "/" * (i % 3) for i in range(n)]


class TestStdinStream:
    def test_bad_line_keeps_the_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("/ok\n/a/b\n" + "x" * 5000 + "\n"))
        code, out, err = run(capsys, "canon", "--stdin")
        assert code == 2
        assert out == "/ok\n/a/b\n"
        assert "line 3" in err and "exceeds" in err

    def test_every_bad_line_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("/a\x00b\n/ok\n" + "x" * 5000 + "\n"))
        code, out, err = run(capsys, "canon", "--stdin")
        assert code == 2
        assert out == "/ok\n"
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("pathguard: line 1: ") and "NUL" in lines[0]
        assert lines[1].startswith("pathguard: line 3: ")

    def test_error_outranks_denial(self, capsys, monkeypatch, whitelist_file):
        text = "/a/b/c\n" + "x" * 5000 + "\n/nope\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "check", "--whitelist", whitelist_file, "--stdin")
        assert code == 2
        assert out == "ALLOW /a/b/c\nDENY /nope\n"
        assert "line 2" in err

    def test_jailed_overflow_is_a_line_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n" + "b" * 4095 + "\nc\n"))
        code, out, err = run(capsys, "canon", "--root", "/srv", "--stdin")
        assert code == 2
        assert out == "/srv/a\n/srv/c\n"
        assert err == "pathguard: line 2: jailed path length 4100 exceeds limit 4096\n"

    def test_nul_in_root_fails_every_line(self, capsys, monkeypatch):
        # A --root is not checked for NUL on its own; every jailed line
        # carries it and is refused.
        monkeypatch.setattr("sys.stdin", io.StringIO("c\nd\n"))
        code, out, err = run(capsys, "canon", "--root", "/a\x00b", "--stdin")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "pathguard: line 1: jailed path contains a NUL byte",
            "pathguard: line 2: jailed path contains a NUL byte",
        ]

    def test_undecodable_stdin_is_answered_byte_for_byte(self, monkeypatch):
        # Both streams are switched to UTF-8 with surrogateescape: the
        # invalid byte is a name like any other and comes back as itself,
        # even through an ASCII stdout.
        stdin = io.TextIOWrapper(io.BytesIO(b"/a\n\xff/../b\n/caf\xe9\n"), encoding="utf-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["canon", "--stdin"]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == b"/a\n/b\n/caf\xe9\n"

    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_non_canonical_root_rejected_before_input(
        self, capsys, monkeypatch, whitelist_file, command
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        extra = ["--whitelist", whitelist_file] if command == "check" else []
        code, out, err = run(capsys, command, "--root", "srv/", "--stdin", *extra)
        assert code == 2
        assert out == ""
        assert "canonical" in err

    def test_first_block_written_before_stdin_ends(self, monkeypatch, whitelist_file):
        out = io.StringIO()
        seen_at_eof = []

        def stdin():
            yield from (line + "\n" for line in batch_lines(BLOCK_LINES + 10))
            seen_at_eof.append(out.getvalue())

        monkeypatch.setattr("sys.stdin", stdin())
        monkeypatch.setattr("sys.stdout", out)
        code = main(["check", "--whitelist", whitelist_file, "--stdin"])
        assert code == 1
        assert seen_at_eof[0].count("\n") == BLOCK_LINES
        assert out.getvalue().startswith(seen_at_eof[0])
        assert out.getvalue().count("\n") == BLOCK_LINES + 10

    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_blocks_join_to_the_whole_batch_output(
        self, capsys, monkeypatch, whitelist_file, command
    ):
        # 2,500 lines span three blocks; the bytes must equal those of
        # deciding the whole batch and writing it at once.
        lines = batch_lines(2_500)
        canonical = [canonicalize(validate_raw(t.rstrip("\r"))).text for t in lines]
        if command == "canon":
            want, want_code, extra = [c + "\n" for c in canonical], 0, []
        else:
            want = [("ALLOW " if c == "/a/b/c" else "DENY ") + c + "\n" for c in canonical]
            want_code, extra = 1, ["--whitelist", whitelist_file]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(t + "\n" for t in lines)))
        code, out, err = run(capsys, command, "--stdin", *extra)
        assert (code, err) == (want_code, "")
        assert out == "".join(want)

    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_read_error_keeps_the_lines_before_it(
        self, capsys, monkeypatch, whitelist_file, command
    ):
        # stdin fails inside the second block: the 1,500 lines read before
        # it are answered, and the failure is reported and exits 2.
        lines = batch_lines(1_500)

        def stdin():
            yield from (line + "\n" for line in lines)
            raise ValueError("stdin went away")

        want = [canonicalize(validate_raw(t.rstrip("\r"))).text for t in lines]
        extra = []
        if command == "check":
            want = [("ALLOW " if c == "/a/b/c" else "DENY ") + c for c in want]
            extra = ["--whitelist", whitelist_file]
        monkeypatch.setattr("sys.stdin", stdin())
        code, out, err = run(capsys, command, "--stdin", *extra)
        assert (code, err) == (2, "pathguard: stdin went away\n")
        assert out == "".join(c + "\n" for c in want)


# Lines at the edges of the first three blocks of a 2,500-line batch.
BLOCK_EDGES = (1, BLOCK_LINES, BLOCK_LINES + 1, 2_500)


def edge_batch(fault):
    """2,500 lines of ``batch_lines``, ending in "\\n", "\\r\\n" or
    "\\r\\r\\n" in turn, the last with no ending at all. ``fault`` is at
    every line of BLOCK_EDGES, a line of exactly MAX_PATH_LEN characters
    at line 700, and one that fills the limit once put under "/srv" at
    line 1,800."""
    lines = batch_lines(2_500)
    for number in BLOCK_EDGES:
        lines[number - 1] = fault
    lines[699] = "x" * 4096
    lines[1799] = "y" * (4096 - len("/srv/"))
    endings = ("\n", "\r\n", "\r\r\n")
    return "".join(t + endings[i % 3] for i, t in enumerate(lines[:-1])) + lines[-1]


def line_by_line(command, text, root, strict=False):
    """The exit code, stdout and stderr of answering each line of ``text``
    on its own with ``canonicalize(validate_raw(...))``. With ``strict``,
    stderr also counts each kept line's ignored ".." (``underflows``), in
    line order beside the error lines."""
    out, err, failed = [], [], False
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        what = ""
        try:
            raw = validate_raw(line)
            if root is not None:
                what = "jailed "
                raw = validate_raw(root + "/" + line)
        except pathguard.PathError as exc:
            err.append(f"pathguard: line {number}: {what}{exc}\n")
            failed = True
            continue
        if strict and (ignored := underflows(raw)):
            err.append(
                f"pathguard: line {number}: {ignored} parent reference(s) ignored"
                f" at the root in {line!r}\n"
            )
        canonical = canonicalize(raw).text
        if command == "check":
            canonical = ("ALLOW " if canonical == "/a/b/c" else "DENY ") + canonical
        out.append(canonical + "\n")
    denied = command == "check" and any(o.startswith("DENY") for o in out)
    return 2 if failed else int(denied), "".join(out), "".join(err)


def line_errors(err):
    """The lines of ``err`` that name a failing line, without the
    ``--strict-underflow`` reports."""
    return [e for e in err.splitlines(True) if "ignored at the root" not in e]


# Each root, without and then with --strict-underflow.
ROOTS_STRICT = pytest.mark.parametrize(
    "root, strict",
    [(None, False), ("/srv", False), (None, True), ("/srv", True)],
    ids=["None", "/srv", "None-strict", "/srv-strict"],
)


class TestBlockEdges:
    """A failing line at a block edge takes its block through the line by
    line walk, as ``--strict-underflow`` takes every block; every other
    block is checked in bulk. Both must answer as each line on its own
    would."""

    @ROOTS_STRICT
    @pytest.mark.parametrize("fault", ["/a\x00b", "z" * 4097], ids=["nul", "long"])
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_faults_at_block_edges(
        self, capsys, monkeypatch, whitelist_file, command, fault, root, strict
    ):
        text = edge_batch(fault)
        assert text.count("\n") == 2_499 and not text.endswith("\n")
        extra = ["--whitelist", whitelist_file] if command == "check" else []
        if root is not None:
            extra += ["--root", root]
        if strict:
            extra.append("--strict-underflow")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, command, "--stdin", *extra)
        want_code, want_out, want_err = line_by_line(command, text, root, strict)
        assert err == want_err
        assert out == want_out
        assert code == want_code == 2
        # The limit itself is accepted; under the root the same line fails.
        failing = {int(e.split()[2][:-1]) for e in line_errors(err)}
        assert failing == set(BLOCK_EDGES) | ({700} if root else set())
        # Only the flag adds reports; err == want_err holds them in line order.
        assert (len(line_errors(err)) < len(err.splitlines())) == strict

    @ROOTS_STRICT
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_jailed_overflow_alone_in_its_block(
        self, capsys, monkeypatch, whitelist_file, command, root, strict
    ):
        # No fault at the edges: without a root every block passes the bulk
        # check; under "/srv", line 700 alone overflows once jailed.
        text = edge_batch("../a/./b/")
        extra = ["--whitelist", whitelist_file] if command == "check" else []
        if root is not None:
            extra += ["--root", root]
        if strict:
            extra.append("--strict-underflow")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, command, "--stdin", *extra)
        assert (code, out, err) == line_by_line(command, text, root, strict)
        jailed = "pathguard: line 700: jailed path length 4101 exceeds limit 4096\n"
        assert line_errors(err) == ([] if root is None else [jailed])

    def test_strict_underflow_runs_no_walk(self, capsys, monkeypatch, whitelist_file):
        # The ignored ".." are counted by normpath, as the texts are: the
        # stack walk is the tests' reference and runs only in
        # canonicalize_traced.
        def walk(*args):
            raise AssertionError("the stack walk ran")

        monkeypatch.setattr(canonical, "_walk", walk)
        ignored = {
            "": 0, "/a/b": 0, "/..": 1, "/a/../..": 1, "../../x/..": 2,
            "/.x/../../...": 1, ".../../..": 1, "..a/../..": 1,
            "a/b/../../../../c": 2, "//..//./../a": 2, "/../a/b/../../../": 2,
        }
        assert {t: underflows(validate_raw(t)) for t in ignored} == ignored
        text = edge_batch("/a\x00b")
        for command in ["canon", "check"]:
            for root in [None, "/srv"]:
                extra = ["--whitelist", whitelist_file] if command == "check" else []
                if root is not None:
                    extra += ["--root", root]
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code, out, err = run(
                    capsys, command, "--stdin", "--strict-underflow", *extra
                )
                assert (code, out, err) == line_by_line(command, text, root, True)
                assert len(line_errors(err)) < len(err.splitlines())


class TestByteExact:
    """One set of bytes gets one set of answer bytes, whatever the locale.

    The whitelist holds a name that is not valid UTF-8; the CLI runs as a
    child so that Python sets its standard streams up from the environment.
    """

    ENVIRONMENTS = {
        "C": {"LC_ALL": "C"},
        "latin-1": {"PYTHONIOENCODING": "latin-1"},
        "utf-8-strict": {"PYTHONIOENCODING": "utf-8:strict"},
    }

    @pytest.fixture
    def latin1_whitelist(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_bytes(b"/caf\xe9\n")
        return str(path)

    def child(self, environment, argv, stdin=b""):
        src = os.path.dirname(os.path.dirname(pathguard.__file__))
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")
        }
        env.update(self.ENVIRONMENTS[environment], PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "pathguard.cli", *argv],
            env=env,
            input=stdin,
            capture_output=True,
            timeout=60,
        )
        return done.returncode, done.stdout

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    def test_stdin(self, environment, latin1_whitelist):
        argv = ["check", "--whitelist", latin1_whitelist, "--stdin"]
        got = self.child(environment, argv, b"/ok\n/caf\xe9\n/a/b\n")
        assert got == (1, b"DENY /ok\nALLOW /caf\xe9\nDENY /a/b\n")

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    def test_argv(self, environment, latin1_whitelist):
        argv = [b"check", b"--whitelist", latin1_whitelist.encode(), b"/x/../caf\xe9"]
        assert self.child(environment, argv) == (0, b"ALLOW /caf\xe9\n")


class TestVerify:
    def test_no_residue_sweep_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "4", "--alphabet", "/.a")
        assert code == 0
        assert out.strip() == "0 violations / 121 visited"

    def test_preimage_listing(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-len", "6", "--alphabet", "/.ab",
            "--target", "/a/b",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "//a//b" in lines or "//a/b" in lines
        assert lines[-1].endswith("preimages of /a/b")

    def test_bad_alphabet_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--max-len", "8", "--alphabet", "ab")
        assert code == 2
        assert "alphabet" in err

    def test_budget_exceeded_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--max-len", "12")
        assert code == 2
        assert "budget" in err

    def test_structured_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-len", "3", "--alphabet", "/.a",
            "--format", "structured",
        )
        assert code == 0
        assert_document(out, {
            "mode": "no-residue",
            "violations": [],
            "summary": {"visited": 40, "violations": 0},
        })

    def test_structured_preimages(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-len", "2", "--alphabet", "/.a",
            "--target", "/a", "--format", "structured",
        )
        assert code == 0
        assert_document(out, {
            "mode": "preimages",
            "target": "/a",
            "preimages": ["a", "/a", "a/"],
            "summary": {"visited": 13, "count": 3},
        })

    def test_preimage_listing_exact(self, capsys):
        code, out, err = run(
            capsys, "verify", "--max-len", "5", "--alphabet", "/.ab",
            "--target", "/a/b",
        )
        assert (code, err) == (0, "")
        assert out == (
            "a/b\n/a/b\na//b\na/b/\n//a/b\n/a//b\n/a/b/\n./a/b\n"
            "a///b\na//b/\na/./b\na/b//\na/b/.\n13 preimages of /a/b\n"
        )

    @staticmethod
    def _trailing_slash_after_a(monkeypatch, name="a"):
        # A faulty canonicalizer: name + "/" (by default "a/") comes out
        # as "/" + name + "/".
        def faulty(text):
            (out,) = _canonical_texts((text,))
            return out + "/" if text == name + "/" else out

        monkeypatch.setattr(
            verifier_module,
            "_canonical_texts",
            lambda texts, prefix="": map(faulty, map(prefix.__add__, texts)),
        )

    def test_violations_exact(self, capsys, monkeypatch):
        self._trailing_slash_after_a(monkeypatch)
        code, out, err = run(capsys, "verify", "--max-len", "2", "--alphabet", "/.a")
        assert (code, out, err) == (
            1, "a/ -> /a/ [trailing-slash]\n1 violations / 13 visited\n", ""
        )

    def test_structured_violations_exact(self, capsys, monkeypatch):
        self._trailing_slash_after_a(monkeypatch)
        code, out, _ = run(
            capsys, "verify", "--max-len", "2", "--alphabet", "/.a",
            "--format", "structured",
        )
        assert code == 1
        assert_document(out, {
            "mode": "no-residue",
            "violations": [
                {"input": "a/", "output": "/a/", "offending": "trailing-slash"}
            ],
            "summary": {"visited": 13, "violations": 1},
        })

    # "\udcff" is the byte 0xff as argv and stdin carry it: not UTF-8, so
    # JSON gets it in hex. The document reads back to the input bytes.
    NON_UTF8 = ("verify", "--max-len", "2", "--alphabet", "/.\udcff")

    def test_structured_violations_read_back_to_the_input_bytes(self, monkeypatch):
        self._trailing_slash_after_a(monkeypatch, "\udcff")
        code, out = run_bytes(monkeypatch, *self.NON_UTF8, "--format", "structured")
        assert code == 1
        assert_document(out.decode("ascii"), {
            "mode": "no-residue",
            "violations": [{
                "input": None, "input_hex": "ff2f",
                "output": None, "output_hex": "2fff2f",
                "offending": "trailing-slash",
            }],
            "summary": {"visited": 13, "violations": 1},
        })
        (violation,) = json.loads(out)["violations"]
        assert _bytes_of(violation, "input") == b"\xff/"
        assert _bytes_of(violation, "output") == b"/\xff/"

    def test_structured_preimages_read_back_to_the_input_bytes(self, monkeypatch):
        argv = (*self.NON_UTF8, "--target", "/\udcff")
        code, plain = run_bytes(monkeypatch, *argv)
        assert (code, plain) == (0, b"\xff\n/\xff\n\xff/\n3 preimages of /\xff\n")
        code, out = run_bytes(monkeypatch, *argv, "--format", "structured")
        assert code == 0
        assert_document(out.decode("ascii"), {
            "mode": "preimages",
            "target": None,
            "target_hex": "2fff",
            "preimages": [None, None, None],
            "preimages_hex": ["ff", "2fff", "ff2f"],
            "summary": {"visited": 13, "count": 3},
        })
        doc = json.loads(out)
        assert _bytes_of(doc, "target") == b"/\xff"
        assert _bytes_of(doc, "preimages") == plain.split(b"\n")[:3]

    # A sweep that fails has found no violation: it exits 2, with one line.
    SWEEP = ("verify", "--max-len", "6", "--alphabet", "/.ab")

    @staticmethod
    def _cpus(monkeypatch, n):
        # A fake mask of n CPUs; the setter only records, so it never
        # reaches the real mask.
        pinned = []
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
        )
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)),
            raising=False,
        )
        return pinned

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_sweep_one_string_short_exits_2(self, capsys, monkeypatch, n):
        # The last block, a child's on 2 CPUs, loses a string.
        blocks = verifier_module._blocks

        def short(spec):
            *head, (prefix, suffixes) = blocks(spec)
            return [*head, (prefix, suffixes[:-1])]

        monkeypatch.setattr(verifier_module, "_blocks", short)
        pinned = self._cpus(monkeypatch, n)
        assert run(capsys, *self.SWEEP) == (
            2, "", "pathguard: shards visited 5460 of 5461 strings\n"
        )
        # The failed sweep still put the caller's mask back.
        assert pinned == ([{0}, {0, 1}] if n == 2 else [])

    def test_a_failed_shard_exits_2(self, capsys, monkeypatch):
        # Only children call os._exit here; each sends its result, then exits 7.
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(7))
        self._cpus(monkeypatch, 2)
        code, out, err = run(capsys, *self.SWEEP)
        assert (code, out) == (2, "")
        assert re.fullmatch(
            r"pathguard: verifier shard \d+ exited with status 7"
            r" after sending \d+ bytes\n",
            err,
        )

    def test_a_failed_fork_exits_2(self, capsys, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        self._cpus(monkeypatch, 2)
        assert run(capsys, *self.SWEEP) == (
            2, "", "pathguard: [Errno 11] Resource temporarily unavailable\n"
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_an_oracle_divergence_exits_2(self, capsys, monkeypatch, n):
        monkeypatch.setattr(
            verifier_module, "rewrite_canonicalize", lambda raw: CanonicalPath("/x")
        )
        self._cpus(monkeypatch, n)
        assert run(capsys, *self.SWEEP, "--target", "/a") == (
            2, "", "pathguard: oracle divergence on 'a': stack says '/a'\n"
        )


class TestDiff:
    # A comment, a residue line, a bottom-up reach and a clean line.
    CORPUS = "# flaw corpus\n/etc../\n/etc/passwd\n/a/b\n"

    def test_report_exact(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text(self.CORPUS)
        code, out, err = run(capsys, "diff", "--corpus", str(corpus))
        assert (code, err) == (1, "")
        assert out == (
            "/etc../ | baseline=/etc../ | canonical=/etc.. | residue=..\n"
            "/etc/passwd | baseline=/etc/passwd | canonical=/etc/passwd"
            " | residue=- bottom-up-reach\n"
            "2 divergences / 3 inputs\n"
        )

    def test_residue_divergence_exits_one(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("/etc../\n")
        code, out, _ = run(capsys, "diff", "--corpus", str(corpus))
        assert code == 1
        assert "residue=.." in out

    def test_clean_corpus_exits_zero(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("/a/b\n")
        code, out, _ = run(capsys, "diff", "--corpus", str(corpus))
        assert code == 0
        assert out.strip() == "0 divergences / 1 inputs"

    def test_normalization_difference_without_residue_exits_zero(
        self, capsys, tmp_path
    ):
        corpus = tmp_path / "c.txt"
        corpus.write_text("/a//b\n")
        code, _, _ = run(capsys, "diff", "--corpus", str(corpus))
        assert code == 0

    def test_corpus_lines_end_at_newline_only(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"/a\rb\n/c\r\n")
        code, out, _ = run(capsys, "diff", "--corpus", str(corpus))
        assert (code, out) == (0, "0 divergences / 2 inputs\n")

    def test_invalid_corpus_line_names_its_line(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"# corpus\n" + b"a" * 4097 + b"\n")
        code, out, err = run(capsys, "diff", "--corpus", str(corpus))
        assert (code, out) == (2, "")
        assert err == "pathguard: corpus line 2: path length 4097 exceeds limit 4096\n"

    def test_unreadable_corpus_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "diff", "--corpus", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_structured_report(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text(self.CORPUS)
        code, out, _ = run(
            capsys, "diff", "--corpus", str(corpus), "--format", "structured"
        )
        assert code == 1
        assert_document(out, {
            "mode": "diff",
            "records": [
                {
                    "input": "/etc../",
                    "baseline_output": "/etc../",
                    "canonical_output": "/etc..",
                    "residue_found": [".."],
                    "bottom_up_reach": False,
                },
                {
                    "input": "/etc/passwd",
                    "baseline_output": "/etc/passwd",
                    "canonical_output": "/etc/passwd",
                    "residue_found": [],
                    "bottom_up_reach": True,
                },
            ],
            "summary": {"inputs": 3, "divergences": 2},
        })

    def test_structured_report_reads_back_to_the_input_bytes(self, monkeypatch, tmp_path):
        # Text that is UTF-8 stays text; a field with a byte that is not
        # becomes null, with its exact bytes in hex beside it.
        lines = [b"/\xff../", b"/caf\xc3\xa9/../x\xfe//", b"/caf\xc3\xa9/./b/"]
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        code, out = run_bytes(
            monkeypatch, "diff", "--corpus", str(corpus), "--format", "structured"
        )
        assert code == 1
        assert_document(out.decode("ascii"), {
            "mode": "diff",
            "records": [
                {
                    "input": None, "input_hex": "2fff2e2e2f",
                    "baseline_output": None, "baseline_output_hex": "2fff2e2e2f",
                    "canonical_output": None, "canonical_output_hex": "2fff2e2e",
                    "residue_found": [".."],
                    "bottom_up_reach": False,
                },
                {
                    "input": None, "input_hex": "2f636166c3a92f2e2e2f78fe2f2f",
                    "baseline_output": None, "baseline_output_hex": "2f78fe2f",
                    "canonical_output": None, "canonical_output_hex": "2f78fe",
                    "residue_found": [],
                    "bottom_up_reach": False,
                },
                {
                    "input": "/caf\u00e9/./b/",
                    "baseline_output": "/caf\u00e9/b/",
                    "canonical_output": "/caf\u00e9/b",
                    "residue_found": [],
                    "bottom_up_reach": False,
                },
            ],
            "summary": {"inputs": 3, "divergences": 3},
        })
        records = json.loads(out)["records"]
        assert [_bytes_of(r, "input") for r in records] == lines
        # The plain report carries the same bytes.
        code, plain = run_bytes(monkeypatch, "diff", "--corpus", str(corpus))
        assert [
            b"%s | baseline=%s | canonical=%s" % tuple(
                _bytes_of(r, field)
                for field in ("input", "baseline_output", "canonical_output")
            )
            for r in records
        ] == [line.rsplit(b" | residue=", 1)[0] for line in plain.split(b"\n")[:3]]

    def test_bottom_up_reach_alone_exits_zero(self, capsys, tmp_path):
        # Only residue sets the exit code; a reach is reported, not failed.
        corpus = tmp_path / "c.txt"
        corpus.write_text("/etc/passwd\n")
        code, out, _ = run(
            capsys, "diff", "--corpus", str(corpus), "--format", "structured"
        )
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert record["bottom_up_reach"] is True
        assert record["residue_found"] == []


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
