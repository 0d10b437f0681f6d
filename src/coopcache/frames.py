"""The length-prefixed frame protocol the extern adapter speaks.

Both directions: ``LEN <n>\\n`` followed by exactly n bytes of UTF-8
payload. This module imports only the standard library, so an adapter
that reads and writes frames with it starts without numpy or the rest of
the package.
"""

from __future__ import annotations

FRAME_LIMIT = 16 * 1024 * 1024  # refuse absurd frame sizes from adapters
HEADER_LIMIT = 64  # a header line longer than this is malformed


def frame_bytes(payload: str) -> bytes:
    """One frame: a ``LEN <n>`` header line plus n bytes of UTF-8 payload."""
    data = payload.encode("utf-8")
    return b"LEN %d\n" % len(data) + data


def frame_length(header: bytes) -> int | None:
    """The payload length a header line announces; None unless the line is
    ``LEN <n>\\n`` within ``HEADER_LIMIT`` bytes, with 0 <= n <= ``FRAME_LIMIT``."""
    if len(header) > HEADER_LIMIT or not header.endswith(b"\n") or not header.startswith(b"LEN "):
        return None
    try:
        n = int(header[4:])
    except ValueError:
        return None
    return n if 0 <= n <= FRAME_LIMIT else None


def write_frame(stream, payload: str) -> None:
    """Emit one frame (see :func:`frame_bytes`) and flush it."""
    stream.write(frame_bytes(payload))
    stream.flush()


def read_frame(stream) -> str | None:
    """Read one frame; None on EOF, a bad header, or a truncated payload.

    The header read stops after ``HEADER_LIMIT`` bytes, so an adapter that
    never sends a newline cannot make the reader consume its whole output.
    """
    n = frame_length(stream.readline(HEADER_LIMIT))
    if n is None:
        return None
    data = stream.read(n)
    if data is None or len(data) != n:
        return None
    return data.decode("utf-8", errors="replace")
