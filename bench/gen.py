"""Seeded inputs for the pathguard benchmark.

Everything here is a pure function of the seed and imports nothing from
pathguard. Each request line carries the canonical path it was built to
reach, so the benchmark can check the program without asking it; the tests
also check every target against ``posixpath.normpath``.
"""

from __future__ import annotations

import itertools
import posixpath
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

# Paths an attacker climbs towards. None of them is ever whitelisted.
SENSITIVE = (
    "/etc/passwd",
    "/etc/shadow",
    "/etc/ssl/private/server.key",
    "/home/ops/.ssh/id_rsa",
    "/home/ops/.bash_history",
    "/srv/www/.htpasswd",
    "/srv/www/config/.htpasswd",
    "/proc/self/environ",
    "/var/log/auth.log",
    "/home/admin/.ssh/authorized_keys",
)

_SITES = tuple(f"site{i}" for i in range(24))
_DIRS = (
    "static", "img", "css", "js", "docs", "api", "v1", "v2", "users",
    "assets", "archive", "2019", "2020", "blog", "media", "downloads",
    "...", "a..b", "etc..", ".well-known", "x.y.z",
)
_STEMS = ("index", "app", "style", "logo", "report", "notes", "data", "main")
_EXTS = (".html", ".js", ".css", ".png", ".json", ".txt", ".gz", "")
_ODD_FILES = ("...", "a..b", "etc..", ".htaccess", "..config")
# Names used in noise segments; ".htpasswd" only ever appears as a popped name.
_NOISE_NAMES = ("x", "tmp", "...", "a..b", "etc..", ".htpasswd", "cache", "q")

# Request classes and their exact shares of every batch of lines. Long lines
# are the slowest class, so p99 (top 1%) falls three quarters of the way up
# the long class and p50 falls inside the short classes.
SHARES = (
    ("exact", 0.40),
    ("mutated", 0.30),
    ("attack", 0.10),
    ("miss", 0.16),
    ("long", 0.04),
)
LONG_MIN, LONG_MAX = 512, 4000


@dataclass(frozen=True, slots=True)
class Line:
    text: str  # the request line as sent to the program
    target: str  # the canonical path it was built to reach
    kind: str  # one of the SHARES class names


def expected_canonical(text: str) -> str:
    """The canonical form, computed apart from pathguard."""
    return posixpath.normpath("/" + text.lstrip("/"))


def make_whitelist(seed: int, n: int) -> List[str]:
    """``n`` distinct canonical entries under /srv/www, in seeded order."""
    rng = random.Random(f"whitelist/{seed}")
    entries = set()
    while len(entries) < n:
        dirs = [rng.choice(_DIRS) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.05:
            name = rng.choice(_ODD_FILES)
        else:
            name = rng.choice(_STEMS) + str(rng.randrange(2000)) + rng.choice(_EXTS)
        entries.add("/" + "/".join(["srv", "www", rng.choice(_SITES), *dirs, name]))
    out = sorted(entries)
    rng.shuffle(out)
    return out


def whitelist_text(entries: Sequence[str]) -> str:
    """The whitelist file format: comments and blank lines are ignored."""
    return "# benchmark whitelist\n\n" + "".join(e + "\n" for e in entries)


def _noise(rng: random.Random, at_root: bool) -> List[str]:
    """A run of tokens that leaves the stack as it found it."""
    pick = rng.randrange(6 if at_root else 5)
    if pick == 0:
        return [""]  # "//"
    if pick == 1:
        return ["."]
    if pick == 2:
        return [rng.choice(_NOISE_NAMES), ".."]
    if pick == 3:
        return [rng.choice(_NOISE_NAMES), rng.choice(_NOISE_NAMES), "..", ".."]
    if pick == 4:
        return [rng.choice(_NOISE_NAMES), ".", ".."]
    return [".."]  # ignored at the root


def _spell(rng: random.Random, parts: List[str], mutations: int) -> str:
    """A spelling of "/" + "/".join(parts) with ``mutations`` edits."""
    tokens = list(parts)
    lead = "/"
    for _ in range(mutations):
        op = rng.randrange(5)
        if op == 3:
            lead = "./"
        elif op == 4:
            lead = "../" * rng.randint(1, 3)
        else:
            i = rng.randint(0, len(tokens))
            tokens[i:i] = ([""], ["."], [rng.choice(_NOISE_NAMES), ".."])[op]
    return lead + "/".join(tokens)


def _attack(rng: random.Random, entries: Sequence[str]) -> Line:
    target = rng.choice(SENSITIVE)
    base = rng.choice(entries).split("/")[1:-1]
    keep = rng.randint(1, len(base))
    climb = [".."] * (keep + rng.randint(0, 3))
    if rng.random() < 0.3:
        climb.insert(rng.randint(0, len(climb)), ".")
    lead = "/" if rng.random() < 0.7 else ""
    text = lead + "/".join(base[:keep] + climb + target[1:].split("/"))
    return Line(text, target, "attack")


def _miss(rng: random.Random, entries: Sequence[str], allowed: frozenset) -> Line:
    while True:
        parts = rng.choice(entries)[1:].split("/")
        parts[-1] = parts[-1] + rng.choice(("~", ".bak", ".old", "2"))
        target = "/" + "/".join(parts)
        if target not in allowed:
            break
    return Line(_spell(rng, parts, rng.randint(0, 1)), target, "miss")


def _long(rng: random.Random, target: str, length: int) -> Line:
    parts = target[1:].split("/")
    gaps: List[List[str]] = [[] for _ in range(len(parts) + 1)]
    size = len(target)
    while size < length:
        g = rng.randrange(len(gaps))
        # ".." alone is only harmless before the first component.
        tokens = _noise(rng, at_root=(g == 0))
        gaps[g].extend(tokens)
        size += sum(len(t) + 1 for t in tokens)
    tokens = list(gaps[0])
    for part, gap in zip(parts, gaps[1:]):
        tokens.append(part)
        tokens.extend(gap)
    return Line("/" + "/".join(tokens), target, "long")


def class_counts(n: int) -> Dict[str, int]:
    counts = {kind: int(n * share) for kind, share in SHARES}
    counts["exact"] += n - sum(counts.values())
    return counts


def make_lines(seed: int, purpose: str, entries: Sequence[str], n: int) -> List[Line]:
    """``n`` request lines with exact class shares, in seeded order."""
    rng = random.Random(f"lines/{purpose}/{seed}")
    allowed = frozenset(entries)
    counts = class_counts(n)
    lines: List[Line] = []
    for _ in range(counts["exact"]):
        e = rng.choice(entries)
        lines.append(Line(e, e, "exact"))
    for _ in range(counts["mutated"]):
        e = rng.choice(entries)
        lines.append(Line(_spell(rng, e[1:].split("/"), rng.randint(1, 4)), e, "mutated"))
    for _ in range(counts["attack"]):
        lines.append(_attack(rng, entries))
    for _ in range(counts["miss"]):
        lines.append(_miss(rng, entries, allowed))
    n_long = counts["long"]
    for i in range(n_long):
        # Lengths are evenly spread so p99 does not move with the seed.
        length = LONG_MIN + (LONG_MAX - LONG_MIN) * (2 * i + 1) // (2 * n_long)
        target = rng.choice(entries) if i % 2 else rng.choice(SENSITIVE)
        lines.append(_long(rng, target, length))
    rng.shuffle(lines)
    return lines


def lines_text(lines: Sequence[Line]) -> str:
    return "".join(line.text + "\n" for line in lines)


def shortlex(alphabet: str, max_len: int) -> Iterator[str]:
    """Every string over ``alphabet`` up to ``max_len``, shortlex order."""
    for length in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=length):
            yield "".join(chars)


def shortlex_chunks(alphabet: str, max_len: int, chunk_exp: int) -> Iterator[List[str]]:
    """``shortlex`` cut into chunks of about len(alphabet) ** chunk_exp."""
    yield list(shortlex(alphabet, min(chunk_exp - 1, max_len)))
    for length in range(chunk_exp, max_len + 1):
        for prefix in itertools.product(alphabet, repeat=length - chunk_exp):
            head = "".join(prefix)
            yield [
                head + "".join(rest)
                for rest in itertools.product(alphabet, repeat=chunk_exp)
            ]


def normpath_preimages(alphabet: str, max_len: int, target: str) -> List[str]:
    """Strings whose canonical form is ``target``, by posixpath, shortlex."""
    return [s for s in shortlex(alphabet, max_len) if expected_canonical(s) == target]


def decision_line(target: str, allowed: frozenset) -> str:
    """The line ``pathguard check`` prints for a path with this target."""
    return ("ALLOW " if target in allowed else "DENY ") + target

