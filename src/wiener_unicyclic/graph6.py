"""graph6 text format: one undirected simple graph per line.

Implements the standard encoding (size bytes, then the upper triangle of
the adjacency matrix in column order, six bits per printable character,
high bit first). Decode walks the triangle in the order encode writes
it (columns j = 1 .. n - 1, rows i < j) and never reads the padding
bits of the last character. The optional ``>>graph6<<`` header is
accepted on decode and never written. Parse failures raise
:class:`Graph6ParseError` carrying the byte offset of the offending
character within the given line.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"

_LOW = 63  # printable range is chr(63)..chr(126)
_HIGH = 126


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position in the line."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 line (no header, no newline)."""
    n = g.n
    if n <= 62:
        out = [chr(n + _LOW)]
    else:
        # 64 >= n > 62 uses the '~' + 18-bit size form
        out = [chr(_HIGH), chr((n >> 12 & 63) + _LOW), chr((n >> 6 & 63) + _LOW), chr((n & 63) + _LOW)]
    group = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + _LOW))
                group = 0
                nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + _LOW))
    return "".join(out)


def graph6_decode(line: str) -> Graph:
    """Decode one graph6 line (optional header, trailing newline tolerated)."""
    s = line.rstrip("\r\n")
    base = 0
    if s.startswith(HEADER):
        s = s[len(HEADER) :]
        base = len(HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 line", base)
    vals = []
    for i, ch in enumerate(s):
        o = ord(ch)
        if o < _LOW or o > _HIGH:
            raise Graph6ParseError(f"character {ch!r} outside graph6 range", base + i)
        vals.append(o - _LOW)

    if vals[0] < 63:
        n = vals[0]
        body_at = 1
    else:
        # '~' prefix: 18-bit size in the next three characters
        if len(vals) < 4:
            raise Graph6ParseError("truncated extended size field", base + len(s))
        if vals[1] == 63:
            raise Graph6ParseError("36-bit graph6 sizes unsupported", base + 1)
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body_at = 4
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"graph order {n} exceeds supported {MAX_VERTICES}", base)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(vals) - body_at
    if have < need:
        raise Graph6ParseError(f"body truncated: need {need} characters, got {have}", base + len(s))
    if have > need:
        raise Graph6ParseError("trailing characters after graph6 body", base + body_at + need)

    adj = [0] * n
    at = body_at - 1
    left = 0  # bits of vals[at] not yet read; the padding bits stay unread
    for j in range(1, n):
        for i in range(j):
            if not left:
                at += 1
                left = 6
            left -= 1
            if vals[at] >> left & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))
