"""Write the benchmark's 100,000-line batch and the bytes pathguard must
answer it with.

    python tests/batch_bytes.py DIR

DIR gets ``lines.txt``, bench/gen.py's seed-41 batch with NUL and
over-long lines planted alone and in pairs, and ``whitelist.txt``, its
40,000-entry whitelist. For ``canon`` and ``check`` it also gets the
stdout (``<command>.out``) and stderr (``<command>.err``) that
``pathguard <command> --stdin`` must write on that batch: the generator's
targets, ``gen.decision_line`` and one ``line N:`` error per planted line.
Both commands must exit 2. Nothing here imports pathguard, and bench/ is
only imported.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
import gen  # noqa: E402

SEED = 41
ENTRIES = 40_000
LINES = 100_000

NUL = ("/srv/www/\x00/etc/passwd", "path contains a NUL byte")
LONG = ("/" + "a" * 4096, "path length 4097 exceeds limit 4096")
# Line number -> (line, error): the first and last line of the batch, two
# pairs of neighbours early on and one line alone in the middle, so that
# some of the blocks --stdin answers, one for each read, hold a fault and
# most hold none.
PLANTED = {
    1: NUL,
    1_024: LONG,
    1_025: NUL,
    2_048: NUL,
    2_049: LONG,
    51_200: LONG,
    LINES: NUL,
}


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(out: str) -> None:
    entries = gen.make_whitelist(SEED, ENTRIES)
    allowed = frozenset(entries)
    lines = gen.make_lines(SEED, "batch", entries, LINES)
    texts = [line.text for line in lines]
    targets = [line.target for line in lines]
    errors = []
    for number, (text, error) in sorted(PLANTED.items()):
        texts[number - 1] = text
        targets[number - 1] = None
        errors.append(f"pathguard: line {number}: {error}\n")
    kept = [t for t in targets if t is not None]
    os.makedirs(out, exist_ok=True)
    write(os.path.join(out, "lines.txt"), "".join(t + "\n" for t in texts))
    write(os.path.join(out, "whitelist.txt"), gen.whitelist_text(entries))
    write(os.path.join(out, "canon.out"), "".join(t + "\n" for t in kept))
    check = "".join(gen.decision_line(t, allowed) + "\n" for t in kept)
    write(os.path.join(out, "check.out"), check)
    for command in ("canon", "check"):
        write(os.path.join(out, command + ".err"), "".join(errors))


if __name__ == "__main__":
    main(sys.argv[1])
