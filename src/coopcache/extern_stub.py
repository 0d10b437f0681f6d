"""Minimal external adapter: answers every prompt with all no-ops.

Speaks the length-prefixed frame protocol on stdin/stdout. Useful as a
wiring smoke test for the extern policy and as the starting point for a
real adapter:

    coopcache run --policy "extern:python -m coopcache.extern_stub" ...

An adapter needs only :mod:`coopcache.frames`, which imports nothing
outside the standard library, so it starts without numpy or the
environment modules.
"""

from __future__ import annotations

import re
import sys

from .frames import read_frame, write_frame

_CACHE_LINE = re.compile(r"^BS ([0-9]+) CACHE:", re.MULTILINE)


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    while True:
        prompt = read_frame(stdin)
        if prompt is None:
            return 0
        ids = sorted({int(b) for b in _CACHE_LINE.findall(prompt)})
        write_frame(stdout, "\n".join(f"BS {b}: NOOP" for b in ids))


if __name__ == "__main__":
    raise SystemExit(main())
