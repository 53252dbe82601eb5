"""Graph I/O: whitespace edge lists, the graph6 line format, and the JSON
form of reports."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import isqrt

from .graph import Graph

#: The most vertices graph6's four-byte size header can hold; edge-list
#: headers are held to the same bound before anything is allocated.
_MAX_N = 258047

#: The bytes a graph6 body may hold, each carrying six bits as ``byte - 63``.
_G6_BYTES = bytes(range(63, 127))
#: A ``bytes.translate`` table from six bits to their graph6 byte.
_G6_SIX_TO_BYTE = _G6_BYTES.ljust(256, b"\0")
#: A ``bytes.translate`` table: ``?`` (no bit set) stays and any other byte
#: becomes ``!``, so ``bytes.find`` jumps from one edge-holding byte to the next.
_G6_MARKS = bytes(63 if b == 63 else 33 for b in range(256))
#: The set bits of each graph6 byte value, as offsets from its top bit.
_G6_SET_BITS = [tuple(s for s in range(6) if b - 63 >> 5 - s & 1) for b in range(256)]


def parse_edge_list(text: str) -> tuple[Graph, list[int]]:
    """Parse the ``"n m"`` header plus ``m`` lines of ``"u v"``.

    Vertex labels need not be dense; they are normalized to 0..n-1 in
    sorted label order and the original labels are returned alongside.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs an 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    if n > _MAX_N:
        raise ValueError(f"edge list declares {n} vertices; at most {_MAX_N} supported")
    if m < 0:
        raise ValueError(f"edge list declares {m} edges; the count must be nonnegative")
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"expected {2 * m} endpoint tokens, got {len(body)}")
    raw = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    seen = {x for e in raw for x in e}
    if all(0 <= x < n for x in seen):
        labels = list(range(n))
    else:
        # labels outside 0..n-1: renumber densely, unused ids pad the tail
        labels = sorted(seen)
        if len(labels) > n:
            raise ValueError("more labels than declared vertices")
        filler = (x for x in range(2 * n) if x not in seen)
        labels += [next(filler) for _ in range(n - len(labels))]
    remap = {lab: i for i, lab in enumerate(labels)}
    return Graph(n, [(remap[u], remap[v]) for u, v in raw]), labels


def write_edge_list(g: Graph) -> str:
    """Serialize with a header line and one ``u v`` line per edge, u < v."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= _MAX_N:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError(f"graph6 supports at most {_MAX_N} vertices here")


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, header length in bytes)."""
    if not data:
        raise ValueError("empty graph6 line")
    if data[0] != 126:
        size, off = data[:1], 1
    elif len(data) < 4:
        raise ValueError("truncated graph6 size header")
    elif data[1] == 126:
        raise ValueError(f"graph6 graphs beyond {_MAX_N} vertices unsupported")
    else:
        size, off = data[1:4], 4
    if size.translate(None, _G6_BYTES):
        raise ValueError("invalid graph6 byte")
    n = 0
    for byte in size:
        n = n << 6 | byte - 63
    return n, off


def to_graph6(g: Graph) -> str:
    """Encode as a single graph6 line (no trailing newline)."""
    header = _g6_encode_n(g.n)
    # bit k = v(v-1)/2 + u of the body, most significant bit of each byte
    # first, is the pair u < v; each byte holds its six bits plus 63
    body = bytearray(-(-g.n * (g.n - 1) // 12))
    for u, v in g.edges():
        k = v * (v - 1) // 2 + u
        body[k // 6] |= 32 >> k % 6
    return (header + body.translate(_G6_SIX_TO_BYTE)).decode("ascii")


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed)."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    data = line.encode("ascii")
    n, off = _g6_decode_n(data)
    body = data[off:]
    size = -(-n * (n - 1) // 12)  # n(n-1)/2 bits, six to a byte
    if len(body) != size:
        raise ValueError(
            f"graph6 body has {len(body)} bytes; {n} vertices need exactly {size}"
        )
    if body.translate(None, _G6_BYTES):
        raise ValueError("invalid graph6 byte")
    # Bit k of the body, most significant bit of each byte first, is the
    # pair (u, v) with v(v-1)/2 + u = k and u < v; bits from n(n-1)/2 on
    # pad the last byte and are ignored.
    total = n * (n - 1) // 2
    edges = []
    marks, i = body.translate(_G6_MARKS), -1
    while (i := marks.find(b"!", i + 1)) >= 0:
        for s in _G6_SET_BITS[body[i]]:
            k = 6 * i + s
            if k >= total:
                break
            v = (1 + isqrt(8 * k + 1)) // 2
            edges.append((k - v * (v - 1) // 2, v))
    return Graph(n, edges)


def autodetect(text: str) -> Graph:
    """Parse edge-list or graph6 content, whichever fits.

    graph6 content must hold exactly one graph, on one non-empty line.
    """
    stripped = text.strip()
    first = stripped.split("\n", 1)[0].strip()
    parts = first.split(None, 2)
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return parse_edge_list(stripped)[0]
    if "\n" in stripped:  # a second non-empty line: another graph
        raise ValueError("graph6 input holds more than one line; expected one graph")
    return from_graph6(first)


def json_data(record):
    """``record`` as data ``json.dumps`` writes: a dataclass becomes the dict
    of its fields in declaration order, a tuple or list a list, a dict keeps
    its keys, and a ``Fraction`` becomes its string."""
    if is_dataclass(record):
        return {f.name: json_data(getattr(record, f.name)) for f in fields(record)}
    if isinstance(record, (tuple, list)):
        return [json_data(x) for x in record]
    if isinstance(record, dict):
        return {k: json_data(v) for k, v in record.items()}
    if isinstance(record, Fraction):
        return str(record)
    return record
