"""The rules the test suite holds pathguard to, written apart from it.

This module uses the standard library only and imports nothing from
``pathguard``, so a fault in pathguard cannot also sit in the reference a
sweep compares it with. ``tests/test_imports.py`` checks that in a child
process. Import names from it (``from spec import walk``): many tests bind
a local ``spec`` to an ``EnumerationSpec``.

- :func:`walk` is the paper's stack walk, the one in the suite: the
  canonical text, the count of ".." ignored at the root and, on request,
  the stack after every part. :func:`canonical_text` and
  :func:`is_canonical` are its text and its fixpoint test.
- :func:`path_error` is the NUL and length rule, :func:`jailed` the
  ``--root`` join, and :func:`line_error` both, after the newline rule.
- :func:`line_answer` answers one line of ``canon`` or ``check``, and
  :func:`stdin_reference` a whole ``--stdin`` input.
- :func:`per_line_load` loads a whitelist or corpus text line by line.
- :func:`flaws_by_parts` names a text's flaws, as ``model._residue`` does.
"""

# The longest path, in characters, that passes the length rule.
MAX_PATH_LEN = 4096


def walk(text, trace=None):
    """The stack walk: split ``text`` on "/", skip empty parts, push names,
    leave the stack as it is on ".", and let ".." pop the most recent name
    or, on an empty stack, count it as ignored at the root. Returns (stack,
    ignored count). When ``trace`` is a list, ``tuple(stack)`` is appended
    to it after every non-empty part, "." and ".." included."""
    stack, ignored = [], 0
    for part in text.split("/"):
        if not part:
            continue
        if part == "..":
            if stack:
                stack.pop()
            else:
                ignored += 1
        elif part != ".":
            stack.append(part)
        if trace is not None:
            trace.append(tuple(stack))
    return stack, ignored


def canonical_text(text):
    """The walk's text of ``text``: "/" and the stack's names joined by "/"."""
    return "/" + "/".join(walk(text)[0])


def is_canonical(text):
    """True iff ``text`` is its own canonical text."""
    return canonical_text(text) == text


def path_error(text, what="path"):
    """The NUL and length rule: the class name and message of the error
    pathguard raises for ``text``, named ``what`` in the message, or None
    if the text passes."""
    if "\x00" in text:
        return "EmbeddedNul", f"{what} contains a NUL byte"
    if len(text) > MAX_PATH_LEN:
        return "PathTooLong", f"{what} length {len(text)} exceeds limit {MAX_PATH_LEN}"
    return None


def jailed(line, root):
    """The path that ``line`` names under ``root``: ``root + "/" + line``,
    or the line itself when there is no root."""
    return line if root is None else root + "/" + line


def line_error(line, root=None):
    """The error message of ``line``, or None: a line that holds a "\\n",
    which only a path argument can, is refused first; then the NUL and
    length rule holds the line on its own and then its jailed path. With no
    root, the jailed path is the line, which has passed already."""
    if "\n" in line:
        return "path contains a newline"
    for what, path in ("path", line), ("jailed path", jailed(line, root)):
        if error := path_error(path, what):
            return error[1]
    return None


def line_answer(line, allowed=None, strict=False, root=None, at="pathguard: "):
    """The stdout text, stderr text and exit code of one line, as
    ``cli._answers`` yields a block's, from the line rules alone. A line that
    fails :func:`line_error` is an error, told after ``at``. Any other line
    is walked under ``root``, which gives its canonical text and the ".."
    it ignores at the root, reported under ``strict``. With ``allowed``, the
    answer is ``check``'s. A path argument is such a line as it stands."""
    if error := line_error(line, root):
        return "", f"{at}{error}\n", 2
    stack, ignored = walk(jailed(line, root))
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
    "\\n", drop one final empty piece, strip trailing "\\r"s, decode with
    surrogateescape, and answer each line as :func:`line_answer` does, its
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


def per_line_load(text, kind, canonicalize_entries=False):
    """The loader as a walk over the lines of ``text``: each line split at
    "\\n", stripped of spaces, tabs and line endings, skipped if blank or a
    "#" comment, and checked on its own, in file order. A whitelist is the
    set of its lines, each of which must be its own canonical text or, with
    ``canonicalize_entries``, is replaced by it; a corpus is
    the list of its lines, in order and duplicates kept, with no canonical
    check. ``kind`` is "whitelist" or "corpus", as the errors name it.

    Returns the paths, or, for the first line that fails, the class name,
    message and line number of the error pathguard raises (None for the
    NUL and length rule, whose errors carry no number)."""
    paths = []
    for number, line in enumerate(text.split("\n"), start=1):
        path = line.strip(" \t\r\n")
        if not path or path.startswith("#"):
            continue
        if error := path_error(path, f"{kind} line {number}: path"):
            return (*error, None)
        if kind == "whitelist":
            canonical = canonical_text(path)
            if not canonicalize_entries and canonical != path:
                message = f"whitelist line {number} is not canonical: {path!r}"
                return "NonCanonicalEntry", message, number
            path = canonical
        paths.append(path)
    return set(paths) if kind == "whitelist" else paths


def flaws_by_parts(text):
    """``model._residue``'s flaws, named from the parts of ``text`` split on
    "/": a part between two "/" of the text closed by one is an empty, "."
    or ".." component exactly when the closed text holds "//", "/./" or
    "/../" there."""
    parts = text.split("/")
    rooted = len(parts) > 1 and parts[0] == ""
    trailing = len(parts) > 1 and parts[-1] == ""
    inner = (parts if trailing else [*parts, ""])[1:-1]
    flaws = [] if rooted else ["missing-leading-slash"]
    if trailing and parts != ["", ""]:
        flaws.append("trailing-slash")
    for part, name in (("", "//"), (".", "/./"), ("..", "/../")):
        if part in inner:
            flaws.append(name)
    return flaws
