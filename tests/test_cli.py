import atexit
import io
import itertools
import json
import os
import re
import select
import subprocess
import sys
import time

import pytest

import pathguard
from pathguard import CanonicalPath, canonical, underflows, validate_raw
from pathguard import cli
from pathguard import verifier as verifier_module
from pathguard.canonical import _canonical_texts
from pathguard.model import _all_checked
from pathguard.cli import main


class ByteStdin:
    """A stdin double with a byte layer: ``buffer.read1`` returns one of
    ``chunks`` a call, then calls ``at_end`` (which may raise) and returns
    b"" for the end of input."""

    def __init__(self, chunks, at_end=lambda: None):
        self.buffer = self
        self.chunks = iter(chunks)
        self.at_end = at_end

    def read1(self, size):
        for chunk in self.chunks:
            assert 0 < len(chunk) <= size
            return chunk
        self.at_end()
        return b""


def python(*argv, **kwargs):
    """``subprocess.Popen`` of ``python *argv`` with this pathguard
    importable; ``env`` entries are added to the environment."""
    src = os.path.dirname(os.path.dirname(pathguard.__file__))
    env = dict(os.environ, PYTHONPATH=src, **kwargs.pop("env", {}))
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def spawn(*argv, **kwargs):
    """:func:`python` of ``-m pathguard.cli *argv``."""
    return python("-m", "pathguard.cli", *argv, **kwargs)


def read_answer(stream, seconds):
    """The bytes that ``stream`` gives up to a "\\n", or those that came
    before ``seconds`` ran out or the stream ended."""
    got, deadline = b"", time.monotonic() + seconds
    while not got.endswith(b"\n") and select.select(
        [stream], [], [], max(0.0, deadline - time.monotonic())
    )[0]:
        if not (chunk := os.read(stream.fileno(), 4096)):
            break
        got += chunk
    return got


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

    def test_strict_underflow_quotes_the_line_as_sent(self, capsys):
        code, out, err = run(
            capsys, "canon", "--root", "/srv", "--strict-underflow", "../../../etc"
        )
        assert (code, out) == (0, "/etc\n")
        assert err == (
            "pathguard: 2 parent reference(s) ignored at the root in '../../../etc'\n"
        )

    def test_strict_underflow_names_the_stdin_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", ByteStdin([b"/ok\n../x\n/etc../\n/a/../../b\n"]))
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
        monkeypatch.setattr("sys.stdin", ByteStdin([b"//a\n./b\r\n"]))
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
        # The one test of the text fallback of _stdin_blocks, a stdin with no
        # byte layer, which is how bench/layers.py drives main().
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
        monkeypatch.setattr("sys.stdin", ByteStdin([b"/a/b/c\n/nope\n"]))
        code, out, _ = run(capsys, "check", "--whitelist", whitelist_file, "--stdin")
        assert code == 1
        assert out == "ALLOW /a/b/c\nDENY /nope\n"


def _fails_if_read():
    raise AssertionError("stdin was read")


class TestArgumentErrors:
    """Arguments that can have no answer: exit 2, one ``pathguard:`` line,
    nothing on stdout, and stdin never read."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Each answer is one line of stdout, so a "\n" in the path or
            # the root would forge more: here "DENY /y", then "ALLOW /x".
            (
                ["check", "--whitelist", "w.txt", "/y\nALLOW /x"],
                "path contains a newline",
            ),
            (["canon", "a\n/b"], "path contains a newline"),
            (["canon", "--root", "/a\nb", "x"], "--root contains a newline"),
            # Refused before the whitelist is read: this one does not exist.
            (
                ["check", "--whitelist", "missing.txt", "--root", "/a\nb", "--stdin"],
                "--root contains a newline",
            ),
            (
                ["canon", "--stdin", "/a"],
                "--stdin and a path argument are mutually exclusive",
            ),
            (
                ["check", "--whitelist", "w.txt", "--stdin", "/a"],
                "--stdin and a path argument are mutually exclusive",
            ),
        ],
        ids=[
            "check-path-newline", "canon-path-newline", "canon-root-newline",
            "check-root-newline-before-the-whitelist", "canon-stdin-and-path",
            "check-stdin-and-path",
        ],
    )
    def test_refused_before_stdin_is_read(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        (tmp_path / "w.txt").write_text("/x\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", ByteStdin([], _fails_if_read))
        assert run(capsys, *argv) == (2, "", f"pathguard: {message}\n")


def batch_lines(n):
    """``n`` input lines of every kind: allowed, denied, climbing, CRLF."""
    kinds = ["/a/b/c", "./a/b/c", "../../a/b/c/", "/a//b/./c/d/..", "/etc/passwd",
             "x/../../y", "", "//", "a/b/c\r"]
    return [kinds[i % len(kinds)] + "/" * (i % 3) for i in range(n)]


class TestStdinStream:
    def test_bad_line_keeps_the_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", ByteStdin([b"/ok\n/a/b\n" + b"x" * 5000 + b"\n"]))
        error = "pathguard: line 3: path length 5000 exceeds limit 4096\n"
        assert run(capsys, "canon", "--stdin") == (2, "/ok\n/a/b\n", error)

    def test_every_bad_line_is_reported(self, capsys, monkeypatch):
        data = b"/a\x00b\n/ok\n" + b"x" * 5000 + b"\n"
        monkeypatch.setattr("sys.stdin", ByteStdin([data]))
        assert run(capsys, "canon", "--stdin") == (
            2, "/ok\n", "pathguard: line 1: path contains a NUL byte\n"
            "pathguard: line 3: path length 5000 exceeds limit 4096\n",
        )

    def test_error_outranks_denial(self, capsys, monkeypatch, whitelist_file):
        data = b"/a/b/c\n" + b"x" * 5000 + b"\n/nope\n"
        monkeypatch.setattr("sys.stdin", ByteStdin([data]))
        code, out, err = run(capsys, "check", "--whitelist", whitelist_file, "--stdin")
        assert code == 2
        assert out == "ALLOW /a/b/c\nDENY /nope\n"
        assert "line 2" in err

    def test_jailed_overflow_is_a_line_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", ByteStdin([b"a\n" + b"b" * 4095 + b"\nc\n"]))
        code, out, err = run(capsys, "canon", "--root", "/srv", "--stdin")
        assert code == 2
        assert out == "/srv/a\n/srv/c\n"
        assert err == "pathguard: line 2: jailed path length 4100 exceeds limit 4096\n"

    def test_nul_in_root_fails_every_line(self, capsys, monkeypatch):
        # A --root is not checked for NUL on its own; every jailed line
        # carries it and is refused.
        monkeypatch.setattr("sys.stdin", ByteStdin([b"c\nd\n"]))
        code, out, err = run(capsys, "canon", "--root", "/a\x00b", "--stdin")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "pathguard: line 1: jailed path contains a NUL byte",
            "pathguard: line 2: jailed path contains a NUL byte",
        ]

    def test_undecodable_stdin_is_answered_byte_for_byte(self, monkeypatch):
        # Both streams' bytes are read and written as UTF-8 with
        # surrogateescape: the invalid byte is a name like any other and
        # comes back as itself, even through an ASCII stdout.
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
        monkeypatch.setattr("sys.stdin", ByteStdin([b"a\n"]))
        extra = ["--whitelist", whitelist_file] if command == "check" else []
        code, out, err = run(capsys, command, "--root", "srv/", "--stdin", *extra)
        assert code == 2
        assert out == ""
        assert "canonical" in err

    def test_each_read_answered_before_the_next(self, monkeypatch, whitelist_file):
        # Before each read, stdout holds one answer for each line that the
        # earlier reads completed; a read that completes no line adds none,
        # and the last line, with no "\\n", is answered at the end.
        out = io.StringIO()
        seen = []

        class Recording(ByteStdin):
            def read1(self, size):
                seen.append(out.getvalue().count("\n"))
                return super().read1(size)

        lines = batch_lines(3_000)
        data = "\n".join(lines).encode()
        # The reads that end at bytes 3 and 7 cut "/a/b/c\n", the first
        # line: the one completes no line, the next completes it.
        at = [0, 3, 7, 4_000, 4_001, len(data) // 2, len(data)]
        reads = [data[i:j] for i, j in zip(at, at[1:])]
        monkeypatch.setattr("sys.stdin", Recording(reads))
        monkeypatch.setattr("sys.stdout", out)
        code = main(["check", "--whitelist", whitelist_file, "--stdin"])
        assert code == 1
        assert seen == [data[:i].count(b"\n") for i in at]
        assert out.getvalue().count("\n") == len(lines)

    def test_the_core_writes_nothing(self, monkeypatch):
        # cli._answers decides and _cmd_paths writes. With sys streams that
        # fail any read, write or flush (an object() has none of them), the
        # core still gives each block's texts and code, numbers lines across
        # blocks, and ends at a failed read.
        def blocks():
            yield ["/a/b/c", "/a\x00b", "x" * 4097, "../../a/b/c"]
            yield ["/etc/passwd"]
            raise OSError("stdin went away")

        for stream in ("stdin", "stdout", "stderr"):
            monkeypatch.setattr(sys, stream, object())
        whitelist = pathguard.Whitelist(["/a/b/c"])
        assert list(cli._answers(blocks(), True, None, whitelist, True)) == [
            (
                "ALLOW /a/b/c\nALLOW /a/b/c\n",
                "pathguard: line 2: path contains a NUL byte\n"
                "pathguard: line 3: path length 4097 exceeds limit 4096\n"
                "pathguard: line 4: 2 parent reference(s) ignored at the root in"
                " '../../a/b/c'\n",
                2,
            ),
            ("DENY /etc/passwd\n", "", 1),
            ("", "pathguard: stdin went away\n", 2),
        ]

    @pytest.mark.parametrize(
        "command, answers, want_code",
        [
            ("canon", [b"/b\n", b"/a/b/c\n"], 0),
            ("check", [b"DENY /b\n", b"ALLOW /a/b/c\n"], 1),
        ],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_caller_that_waits_gets_each_answer(
        self, whitelist_file, command, answers, want_code, unbuffered
    ):
        # A child on a pipe, as behind ``tail -f`` or a server that sends one
        # path and waits: each line is answered while stdin is still open.
        extra = ["--whitelist", whitelist_file] if command == "check" else []
        env = {"PYTHONUNBUFFERED": "1" if unbuffered else ""}
        with spawn(
            command, "--stdin", *extra, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        ) as child:
            try:
                for line, answer in zip((b"/a/../b\n", b"/x/../a/b/c\n"), answers):
                    child.stdin.write(line)
                    child.stdin.flush()
                    assert read_answer(child.stdout, seconds=20) == answer
                child.stdin.close()
                assert child.wait(timeout=60) == want_code
            finally:
                child.kill()

    @pytest.mark.parametrize("lines", [1, 100_000])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_one_error_line(self, lines, unbuffered):
        # A reader that goes away (``| head``, say) fails the run in one
        # line: stdout breaks mid-batch, or at the first block's write, and
        # the flush at exit does not fail again.
        env = {"PYTHONUNBUFFERED": "1" if unbuffered else ""}
        reader, writer = os.pipe()
        os.close(reader)
        try:
            with spawn(
                "canon", "--stdin", env=env,
                stdin=subprocess.PIPE, stdout=writer, stderr=subprocess.PIPE,
            ) as child:
                _, err = child.communicate(b"/a/../b\n" * lines, timeout=60)
        finally:
            os.close(writer)
        assert child.returncode == 2
        err = err.decode()
        assert err.startswith("pathguard: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("both", [False, True], ids=["stderr", "stdout-and-stderr"])
    def test_closed_stderr_exits_2_quietly(self, both):
        # A closed stderr (``2>&1 | head``, say, or a dead stderr reader)
        # takes the report with it, but the run still exits 2, not 1 on a
        # traceback raised while reporting.
        reader, writer = os.pipe()
        os.close(reader)
        out = writer if both else subprocess.PIPE
        try:
            with spawn(
                "canon", "--stdin", "--strict-underflow",
                stdin=subprocess.PIPE, stdout=out, stderr=writer,
            ) as child:
                got, _ = child.communicate(b"/../a\n" * 3, timeout=60)
        finally:
            os.close(writer)
        assert child.returncode == 2
        assert got in (None, b"")

    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_blocks_join_to_the_whole_batch_output(self, edge_answer, command):
        # 2,500 lines in three reads, so three blocks; the bytes must equal
        # those of deciding the whole batch and writing it at once.
        text = "".join(t + "\n" for t in batch_lines(2_500))
        got, want = edge_answer(command, text, None, False)
        assert got == want and got[0] == (command == "check")

    # A stdin file object that is closed raises ValueError, a failed read
    # (ECONNRESET on a socket, say) an OSError. Decoding never fails: the
    # UTF-8 decoder with surrogateescape takes any bytes.
    @pytest.mark.parametrize("error", [ValueError, ConnectionResetError])
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_read_error_keeps_the_lines_before_it(
        self, capsys, monkeypatch, whitelist_file, command, error
    ):
        # stdin fails after 1,500 lines, one a read: each of them is
        # answered, and the failure is reported and exits 2.
        lines = batch_lines(1_500)

        def went_away():
            raise error("stdin went away")

        stdin = ByteStdin([(line + "\n").encode() for line in lines], went_away)
        allowed, extra = None, []
        if command == "check":
            allowed, extra = ("/a/b/c",), ["--whitelist", whitelist_file]
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, command, "--stdin", *extra)
        assert (code, err) == (2, "pathguard: stdin went away\n")
        assert out == stdin_reference("\n".join(lines).encode(), allowed)[1]


class TestClosedStreams:
    """Python sets ``sys.stdin``, ``sys.stdout`` or ``sys.stderr`` to None
    when its file descriptor is closed. A closed stdout, or a closed stdin
    under ``--stdin``, is an input error, found before stdin is read or a
    sweep starts; a closed stderr only loses the reports."""

    @pytest.mark.parametrize(
        "fd, argv, message",
        [
            (0, ["check", "--whitelist", os.devnull, "--stdin"], "stdin is closed"),
            (0, ["canon", "--stdin"], "stdin is closed"),
            (1, ["canon", "/a"], "stdout is closed"),
            (1, ["verify", "--max-len", "2"], "stdout is closed"),
        ],
        ids=["check-stdin", "canon-stdin", "canon-stdout", "verify-stdout"],
    )
    def test_a_closed_stream_is_one_error_line(self, fd, argv, message):
        with spawn(
            *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(fd),
        ) as child:
            out, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (2, f"pathguard: {message}\n".encode())
        assert out in (None, b"")

    def test_a_path_argument_needs_no_stdin(self):
        with spawn(
            "canon", "/a/../b", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(0),
        ) as child:
            assert child.communicate(timeout=60) == (b"/b\n", b"")
        assert child.returncode == 0

    @pytest.mark.parametrize(
        "output, argv",
        [
            ("stderr", ["canon", "--strict-underflow", "/../b"]),
            ("stderr", ["check", "--whitelist", os.devnull + "/missing", "/a"]),
            ("stdout", ["canon", "/a"]),
        ],
        ids=["stderr-report", "stderr-error", "stdout"],
    )
    def test_an_unwritable_output_exits_2(self, output, argv):
        # An output opened read-only fails each write with EBADF, not a
        # broken pipe: still exit 2, not 1 on a traceback, with one
        # pathguard: line if it was stdout.
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with open(os.devnull, "rb") as unwritable:
            streams[output] = unwritable
            with spawn(*argv, **streams) as child:
                out, err = child.communicate(timeout=60)
        assert child.returncode == 2
        if output == "stdout":
            assert err.startswith(b"pathguard: stdout: ") and err.count(b"\n") == 1
        else:
            assert out == b""

    def test_a_closed_stdout_and_a_broken_stderr_exit_2(self):
        # stdout is closed, and the report of it meets a stderr whose
        # reader is gone: the report is lost, and the run exits 2.
        reader, writer = os.pipe()
        os.close(reader)
        try:
            with spawn(
                "canon", "/a", stderr=writer, preexec_fn=lambda: os.close(1)
            ) as child:
                assert child.wait(timeout=60) == 2
        finally:
            os.close(writer)

    def test_run_without_stdout_or_a_working_stderr(self, monkeypatch):
        # The same, in-process: run() neither flushes a stdout that is None
        # nor lets the failed report escape, and it exits 2. Here os._exit
        # raises, and the exit handlers, which are this process's own, are
        # only counted.
        class Broken(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        def exit_now(code):
            raise SystemExit(code)

        handlers_run = []
        monkeypatch.setattr(os, "_exit", exit_now)
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: handlers_run.append(1))
        monkeypatch.setattr(sys, "argv", ["pathguard", "canon", "/a"])
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", Broken())
        with pytest.raises(SystemExit) as raised:
            cli.run()
        assert raised.value.code == 2
        assert handlers_run == [1]

    @pytest.mark.parametrize(
        "stream, argv, message",
        [
            ("stdin", ["canon", "--stdin"], "stdin is closed"),
            ("stdout", ["canon", "/a"], "stdout is closed"),
            ("stdout", ["verify", "--max-len", "2"], "stdout is closed"),
        ],
        ids=["canon-stdin", "canon-stdout", "verify-stdout"],
    )
    def test_in_process(self, capsys, monkeypatch, stream, argv, message):
        monkeypatch.setattr(sys, stream, None)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"pathguard: {message}\n")

    @pytest.mark.parametrize(
        "argv, code, want",
        [
            (["canon", "a\x00b"], 2, ""),
            (["canon", "--strict-underflow", "/../b"], 0, "/b\n"),
            (["canon", "--stdin"], 2, "/b\n"),
        ],
        ids=["error", "report", "line-error"],
    )
    def test_no_error_text_on_stdout_without_stderr(self, monkeypatch, argv, code, want):
        out = io.StringIO()
        monkeypatch.setattr("sys.stdin", ByteStdin([b"/a/../b\n\x00\n"]))
        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr("sys.stderr", None)
        assert main(argv) == code
        assert out.getvalue() == want


# Registers an exit handler that writes a marker file, then runs the command.
MARKED_RUN = """
import atexit, sys
from pathguard import cli

marker = sys.argv[1]

def mark():
    with open(marker, "w") as fh:
        fh.write("ran")

atexit.register(mark)
sys.argv = ["pathguard", "canon", "--stdin"]
cli.run()
"""


class TestFastExit:
    @pytest.mark.parametrize("to", ["file", "pipe"])
    def test_exit_handlers_run_and_every_answer_is_out(self, tmp_path, to):
        # run() ends in os._exit, which flushes nothing: every byte of over
        # 1 MiB of answers must be out by then, and the handlers run first.
        # Buffered, and the last line has no "\n", so its answer is a write
        # of its own, too small to bypass stdout's buffer.
        data = "\n".join(batch_lines(120_000)).encode()
        assert len(data) >= 1 << 20
        want = stdin_reference(data)
        assert want[0] == 0 and want[2] == ""
        marker, answers = tmp_path / "marker", tmp_path / "answers"
        with open(answers, "wb") as fh:
            out = fh if to == "file" else subprocess.PIPE
            with python(
                "-c", MARKED_RUN, str(marker), env={"PYTHONUNBUFFERED": ""},
                stdin=subprocess.PIPE, stdout=out, stderr=subprocess.PIPE,
            ) as child:
                got, err = child.communicate(data, timeout=60)
        if to == "file":
            got = answers.read_bytes()
        assert (child.returncode, got, err) == (0, want[1].encode(), b"")
        assert marker.read_text() == "ran"


# Lines at the edges of the blocks that edge_reads cuts a 2,500-line batch
# into: the first and last of the first block, the first of the second and
# the last of the batch.
BLOCK_EDGES = (1, 1_024, 1_025, 2_500)


def edge_reads(text):
    """``text`` in UTF-8 as three reads, cut right after line 1,024 and in
    the middle of line 1,800, whose start the reader carries over to the
    third read. The lines each read completes are one block, and a last
    line with no "\\n" is one more."""
    data = text.encode()
    ends = [m.end() for m in re.finditer(b"\n", data)]
    middle = (ends[1_798] + ends[1_799]) // 2
    assert ends[1_798] < middle < ends[1_799] - 1
    return [data[: ends[1_023]], data[ends[1_023] : middle], data[middle:]]


@pytest.fixture
def edge_answer(capsys, monkeypatch, whitelist_file):
    """``edge_answer(command, text, root, strict)``: two (code, stdout,
    stderr), of ``command --stdin`` on ``text`` in edge_reads' three reads
    and of ``stdin_reference``, ``check`` allowing ``whitelist_file``'s."""

    def answer(command, text, root, strict):
        argv = [command, "--stdin"] + ["--strict-underflow"] * strict
        allowed = None
        if command == "check":
            argv, allowed = argv + ["--whitelist", whitelist_file], ("/a/b/c",)
        if root is not None:
            argv += ["--root", root]
        monkeypatch.setattr("sys.stdin", ByteStdin(edge_reads(text)))
        got = run(capsys, *argv)
        return got, stdin_reference(text.encode(), allowed, strict, root)

    return answer


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


def line_error(line, root=None):
    """The error that the NUL and length rule gives ``line``, checked on its
    own and then, under ``root``, as the jailed path ``root + "/" + line``,
    or None. A line that holds a "\\n", which only a path argument can, is
    refused first."""
    if "\n" in line:
        return "path contains a newline"
    jailed = [] if root is None else [("jailed path", root + "/" + line)]
    for what, path in [("path", line), *jailed]:
        if "\x00" in path:
            return f"{what} contains a NUL byte"
        if len(path) > 4096:
            return f"{what} length {len(path)} exceeds limit 4096"
    return None


def line_answer(line, allowed=None, strict=False, root=None, at="pathguard: "):
    """The stdout text, stderr text and exit code of one line, as
    ``cli._answers`` yields a block's, from the line rules alone. A line that
    breaks the NUL and length rule (``line_error``) is an error, told after
    ``at``. Any other line, put under ``root`` if there is one, is walked on
    a stack of its own, which gives its canonical text and the ".." it
    ignores at the root, reported under ``strict``. With ``allowed``, the
    answer is ``check``'s. A path argument is such a line as it stands."""
    if error := line_error(line, root):
        return "", f"{at}{error}\n", 2
    stack, ignored = [], 0
    for part in (line if root is None else root + "/" + line).split("/"):
        if part == "..":
            if stack:
                stack.pop()
            else:
                ignored += 1
        elif part not in ("", "."):
            stack.append(part)
    text = "/" + "/".join(stack)
    report = ""
    if strict and ignored:
        report = f"{at}{ignored} parent reference(s) ignored at the root in {line!r}\n"
    if allowed is None:
        return text + "\n", report, 0
    if text in allowed:
        return "ALLOW " + text + "\n", report, 0
    return "DENY " + text + "\n", report, 1


def stdin_reference(data, allowed=None, strict=False, root=None):
    """The exit code, stdout and stderr of ``--stdin`` on ``data``: split on
    "\n", drop one final empty piece, strip trailing "\r"s, decode with
    surrogateescape, and answer each line as ``line_answer`` does, its
    errors and reports told by line number, in line order."""
    pieces = data.split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    outs, errs, codes = zip(("", "", 0), *(
        line_answer(
            piece.rstrip(b"\r").decode("utf-8", "surrogateescape"),
            allowed, strict, root, f"pathguard: line {number}: ",
        )
        for number, piece in enumerate(pieces, start=1)
    ))
    return max(codes), "".join(outs), "".join(errs)


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
    """Each read's lines are one block. A failing line at a block edge
    takes its block through the line by line walk, as
    ``--strict-underflow`` takes every block; every other block is checked
    in bulk. Both must answer as each line on its own would."""

    @ROOTS_STRICT
    @pytest.mark.parametrize("fault", ["/a\x00b", "z" * 4097], ids=["nul", "long"])
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_faults_at_block_edges(self, edge_answer, command, fault, root, strict):
        text = edge_batch(fault)
        assert text.count("\n") == 2_499 and not text.endswith("\n")
        got, want = edge_answer(command, text, root, strict)
        assert got == want
        code, _, err = got
        assert code == 2
        # The limit itself is accepted; under the root the same line fails.
        failing = {int(e.split()[2][:-1]) for e in line_errors(err)}
        assert failing == set(BLOCK_EDGES) | ({700} if root else set())
        # Only the flag adds reports; got == want holds them in line order.
        assert (len(line_errors(err)) < len(err.splitlines())) == strict

    @ROOTS_STRICT
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_jailed_overflow_alone_in_its_block(self, edge_answer, command, root, strict):
        # No fault at the edges: without a root every block passes the bulk
        # check; under "/srv", line 700 alone overflows once jailed.
        got, want = edge_answer(command, edge_batch("../a/./b/"), root, strict)
        assert got == want
        jailed = "pathguard: line 700: jailed path length 4101 exceeds limit 4096\n"
        assert line_errors(got[2]) == ([] if root is None else [jailed])

    def test_strict_underflow_runs_no_walk(self, edge_answer, monkeypatch):
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
                got, want = edge_answer(command, text, root, True)
                assert got == want
                assert len(line_errors(got[2])) < len(got[2].splitlines())


class TestReader:
    """``--stdin`` decodes each read as it comes, carrying what a read cut
    off to the next: a name or line ending split across reads, or a last
    line without "\\n", is answered as each line on its own would be."""

    # A whitelisted 2-byte UTF-8 name, "\\r\\n" and "\\r\\r\\n" endings, a
    # byte that is not UTF-8, and a last line with no "\\n" that ends in the
    # first byte of a 2-byte name, which the decoder holds until the end.
    DATA = (
        b"/caf\xc3\xa9\r\n./a/b/c\r\r\n\n/x/../caf\xc3\xa9\n/\xff/../b\r\n"
        b"a\rb\n/../caf\xc3"
    )
    ALLOWED = ("/a/b/c", "/caf\u00e9")

    @staticmethod
    def reads(cuts):
        """DATA cut at ``cuts``: one name split between its two bytes and
        the first "\\r\\n" split between "\\r" and "\\n", or every byte alone."""
        data = TestReader.DATA
        if cuts == "name-and-crlf":
            at = [0, data.index(b"\xa9"), data.index(b"\r\n") + 1, len(data)]
        else:
            at = range(len(data) + 1)
        return [data[i:j] for i, j in zip(at, at[1:])]

    @pytest.mark.parametrize("cuts", ["name-and-crlf", "every-byte"])
    @pytest.mark.parametrize("command", ["canon", "check"])
    def test_reads_cut_anywhere(self, monkeypatch, tmp_path, command, cuts):
        wl = tmp_path / "w.txt"
        wl.write_bytes("".join(t + "\n" for t in self.ALLOWED).encode())
        extra = ["--whitelist", str(wl)] if command == "check" else []
        monkeypatch.setattr("sys.stdin", ByteStdin(self.reads(cuts)))
        code, out = run_bytes(monkeypatch, command, "--stdin", *extra)
        allowed = self.ALLOWED if command == "check" else None
        want_code, want_out, _ = stdin_reference(self.DATA, allowed)
        assert (code, out) == (want_code, want_out.encode("utf-8", "surrogateescape"))
        if command == "check":
            assert out.count(b"ALLOW /caf\xc3\xa9\n") == 2

    def test_a_long_line_costs_linear_time(self, capsys, monkeypatch):
        # 16 MiB in 64 KiB reads with no "\n", then two line ends: the text
        # carried between reads is joined once, when a read ends the line.
        # Joined on every read, it took 3.2 s (Python 3.11.7, 2 CPUs); joined
        # once, 0.08 s.
        reads = [b"a" * (1 << 16)] * 256 + [b"\n/a/../b\n"]
        monkeypatch.setattr("sys.stdin", ByteStdin(reads))
        started = time.perf_counter()
        code, out, err = run(capsys, "canon", "--stdin")
        elapsed = time.perf_counter() - started
        assert (code, out) == (2, "/b\n")
        assert err == "pathguard: line 1: path length 16777216 exceeds limit 4096\n"
        assert elapsed < 1.0

    def test_short_writes_are_finished(self, monkeypatch):
        # Unbuffered, stdout's byte layer is a raw file, which may take only
        # part of a write; the rest must still go out.
        class Trickle(io.RawIOBase):
            def __init__(self):
                self.taken = bytearray()

            def writable(self):
                return True

            def write(self, data):
                self.taken += bytes(data[:3])
                return min(3, len(data))

        raw = Trickle()
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="ascii"))
        monkeypatch.setattr("sys.stdin", ByteStdin([b"/caf\xc3\xa9/../a\n/\xff\n"]))
        assert main(["canon", "--stdin"]) == 0
        assert raw.taken == b"/a\n/\xff\n"


# The --stdin boundary sweep's input bytes, one of each kind a line can
# hold: a separator, a dot, a name byte, a space, a "\r", the line end, a
# NUL and a byte that is not UTF-8.
SWEEP_BYTES = [bytes([b]) for b in b"/. a\r\n\x00\xff"]
# Canonical texts over the same bytes, the sweep's check whitelist; "\udcff"
# is how surrogateescape reads the byte b"\xff".
SWEEP_ALLOWED = ("/", "/a", "/ a", "/a a", "/\udcff", "/a/.a", "/..a", "/a\ra")


def stdin_runs(max_len):
    """Every byte string over SWEEP_BYTES up to ``max_len`` bytes, in
    shortlex order, with its runs: the string as one read, then cut into
    two reads at every inner point. The empty string is one run of no
    reads, so a string of ``n`` bytes has ``max(n, 1)`` runs."""
    for n in range(max_len + 1):
        for chars in itertools.product(SWEEP_BYTES, repeat=n):
            data = b"".join(chars)
            yield data, [[data][:n], *([data[:i], data[i:]] for i in range(1, n))]


class TestStdinSweep:
    """Every input of a few bytes, cut into reads every way, gets from
    ``--stdin``'s reader and ``cli._answers`` the exit code, stdout and
    stderr that the line rules give (``stdin_reference``, which shares no
    code with pathguard.canonical), and so does every path argument of a
    few bytes (``line_answer``). The core takes the whitelist from memory,
    so no run pays for argparse, a whitelist file or a stream."""

    MODES = pytest.mark.parametrize(
        "command, strict",
        [("canon", False), ("canon", True), ("check", False), ("check", True)],
        ids=["canon", "canon-strict", "check", "check-strict"],
    )

    @staticmethod
    def sweep(command, strict, inputs):
        """The number of runs of ``inputs``, (string, runs) pairs as from
        ``stdin_runs``, and up to five that go wrong, as (reads, got, want,
        walked). ``got`` folds the answers as ``_cmd_paths`` writes them.
        ``walked`` lists the blocks with no failing line that fail the bulk
        check: they would take the line walk, which answers the same at a
        Python call per line."""
        whitelist = pathguard.Whitelist(SWEEP_ALLOWED) if command == "check" else None
        runs, wrong = 0, []
        for data, cuts in inputs:
            want = stdin_reference(data, whitelist, strict)
            for reads in cuts:
                blocks = list(cli._stdin_blocks(ByteStdin(reads)))
                answers = cli._answers(iter(blocks), True, None, whitelist, strict)
                outs, errs, codes = zip(("", "", 0), *answers)
                got = (max(codes), "".join(outs), "".join(errs))
                walked = [b for b in blocks if not _all_checked(b)]
                walked = [b for b in walked if not any(map(line_error, b))]
                runs += 1
                if (got != want or walked) and len(wrong) < 5:
                    wrong.append((reads, got, want, walked))
        return runs, wrong

    @MODES
    def test_every_input_up_to_length_4(self, command, strict):
        assert self.sweep(command, strict, stdin_runs(4)) == (18_057, [])

    @pytest.mark.overnight
    @MODES
    def test_every_input_up_to_length_5(self, command, strict):
        assert self.sweep(command, strict, stdin_runs(5)) == (181_897, [])

    @MODES
    def test_every_input_up_to_length_2_after_a_long_line(self, command, strict):
        # The length rule at its edge: each string after a line of 4,096
        # "a"s, the longest that passes, and after one of 4,097, as one read
        # and cut at the long line's end; 145 runs after each.
        inputs = [
            (head + data, [[head + data], [head, data]][: 1 + bool(data)])
            for head in (b"a" * 4096 + b"\n", b"a" * 4097 + b"\n")
            for data, _ in stdin_runs(2)
        ]
        assert self.sweep(command, strict, inputs) == (290, [])

    @MODES
    def test_every_path_argument_up_to_length_4(self, command, strict):
        # A path argument is one block of one line, as _cmd_paths passes
        # it: not numbered, not split and no "\r" stripped, and refused,
        # as _cmd_paths reports it, if it holds a "\n". Every string over
        # SWEEP_BYTES up to 4 bytes, then the longest path that passes and
        # one past it.
        whitelist = pathguard.Whitelist(SWEEP_ALLOWED) if command == "check" else None

        def answers(path):
            try:
                block = [cli._one_line(path, "path")]
            except ValueError as exc:
                return [("", f"pathguard: {exc}\n", 2)]
            return list(cli._answers(iter([block]), False, None, whitelist, strict))

        paths = [
            b"".join(chars).decode("utf-8", "surrogateescape")
            for n in range(5)
            for chars in itertools.product(SWEEP_BYTES, repeat=n)
        ] + ["a" * 4096, "a" * 4097]
        wrong = [
            path
            for path in paths
            if answers(path) != [line_answer(path, whitelist, strict)]
        ]
        assert (len(paths), wrong[:5]) == (4_683, [])

    def test_the_reference(self):
        # The rules the sweep holds --stdin to, on inputs whose answers are
        # known: a kept "\r" inside a line, a space kept before one, a line
        # cut by a NUL, a last line with no "\n", and a byte that is not
        # UTF-8.
        data = b"a\r \r\r\n..\x00\n/../ \n\xff/..\r"
        assert stdin_reference(data) == (
            2, "/a\r \n/ \n/\n", "pathguard: line 2: path contains a NUL byte\n"
        )
        assert stdin_reference(data, SWEEP_ALLOWED, strict=True) == (
            2,
            "DENY /a\r \nDENY / \nALLOW /\n",
            "pathguard: line 2: path contains a NUL byte\n"
            "pathguard: line 3: 1 parent reference(s) ignored at the root in '/../ '\n",
        )
        # A path argument: no line number, and a trailing "\r" kept.
        assert line_answer("/../a\r", SWEEP_ALLOWED, strict=True) == (
            "DENY /a\r\n",
            "pathguard: 1 parent reference(s) ignored at the root in '/../a\\r'\n",
            1,
        )
        assert line_answer("a\x00") == ("", "pathguard: path contains a NUL byte\n", 2)
        assert line_answer("a\x00\n/b", SWEEP_ALLOWED) == (
            "", "pathguard: path contains a newline\n", 2
        )
        assert stdin_reference(b"") == (0, "", "")
        assert stdin_reference(b"\n") == stdin_reference(b"\r") == (0, "/\n", "")
        # The length rule at its edge, alone and then jailed under a root,
        # whose parts the ".." of a jailed line can climb.
        a = "a" * 4091
        data = f"{a}\n{a}a\n{a}aaaaaa\n../../x".encode()
        assert stdin_reference(data, root="/srv", strict=True) == (
            2, f"/srv/{a}\n/x\n",
            "pathguard: line 2: jailed path length 4097 exceeds limit 4096\n"
            "pathguard: line 3: path length 4097 exceeds limit 4096\n"
            "pathguard: line 4: 1 parent reference(s) ignored at the root in '../../x'\n",
        )


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
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    def test_stdin(self, environment, latin1_whitelist):
        argv = ["check", "--whitelist", latin1_whitelist, "--stdin"]
        got = self.child(environment, argv, b"/ok\n/caf\xe9\n/a/b\n")
        assert got == (1, b"DENY /ok\nALLOW /caf\xe9\nDENY /a/b\n", b"")

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    def test_argv(self, environment, latin1_whitelist):
        argv = [b"check", b"--whitelist", latin1_whitelist.encode(), b"/x/../caf\xe9"]
        assert self.child(environment, argv) == (0, b"ALLOW /caf\xe9\n", b"")

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    def test_stderr(self, environment):
        # A report quotes the line as sent, in the same codec as stdout.
        argv = ["canon", "--stdin", "--strict-underflow"]
        report = b"pathguard: line 1: 1 parent reference(s) ignored at the root in"
        assert self.child(environment, argv, b"/../caf\xc3\xa9\n") == (
            0, b"/caf\xc3\xa9\n", report + b" '/../caf\xc3\xa9'\n"
        )

    @pytest.mark.parametrize("environment", sorted(ENVIRONMENTS))
    @pytest.mark.parametrize(
        "flag", [b"--caf\xc3\xa9", b"--caf\xe9"], ids=["utf-8", "xff"]
    )
    def test_usage_error(self, environment, flag):
        # argparse's own error text goes out through the same writer as
        # pathguard's: a flag it does not know comes back as its bytes.
        code, out, err = self.child(environment, [b"canon", flag, b"/a"])
        assert (code, out) == (2, b"")
        want = b"pathguard: error: unrecognized arguments: " + flag + b"\n"
        assert err.endswith(want)

    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["canon", "--stdin"], 0, b"/caf\xe9\n"),
            (["canon", "/a\x00b"], 2, b""),
            (["canon", "--no-such-flag"], SystemExit, b""),
        ],
        ids=["stdin", "failure", "raises"],
    )
    def test_main_leaves_the_codecs_alone(self, monkeypatch, argv, code, out):
        # main reads and writes the streams' byte layers: a caller in the
        # same process keeps each stream with its own codec, on success and
        # on failure, whether main returns or raises, and none is switched.
        class Unswitchable(io.TextIOWrapper):
            def reconfigure(self, **kwargs):
                pytest.fail(f"main reconfigured a stream: {kwargs}")

        stdin = Unswitchable(io.BytesIO(b"/x/../caf\xe9\n"), encoding="latin-1")
        stdout = Unswitchable(io.BytesIO(), encoding="latin-1")
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        for stream in (stdin, stdout):
            assert (stream.encoding, stream.errors) == ("latin-1", "strict")
        stdout.flush()
        assert stdout.buffer.getvalue() == out

    def test_an_error_mid_batch_reaches_the_caller(self, monkeypatch):
        # A stdout that fails mid-batch leaves stdin part read; main's own
        # error must reach the caller, and both streams keep their codecs.
        class Reads(io.RawIOBase):
            def __init__(self, chunks):
                self.chunks = iter(chunks)

            def readable(self):
                return True

            def readinto(self, buffer):
                chunk = next(self.chunks, b"")
                buffer[: len(chunk)] = chunk
                return len(chunk)

        class Broken(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

        reads = Reads(edge_reads("/a\n" * 3_072))
        stdin = io.TextIOWrapper(io.BufferedReader(reads), encoding="latin-1")
        stdout = io.TextIOWrapper(Broken(), encoding="latin-1", write_through=True)
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        with pytest.raises(BrokenPipeError):
            main(["canon", "--stdin"])
        for stream in (stdin, stdout):
            assert (stream.encoding, stream.errors) == ("latin-1", "strict")


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
        # The second block, a child's on 2 CPUs, loses a string.
        blocks = verifier_module._blocks

        def short(spec):
            first, (prefix, suffixes), *tail = blocks(spec)
            return [first, (prefix, suffixes[:-1]), *tail]

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
