"""Edge-list and graph6 round trips."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from sparse2dc.families import petersen, random_hub_network, random_skeleton
from sparse2dc.graph import Graph, subdivide
from sparse2dc.io import (
    autodetect,
    from_graph6,
    json_data,
    parse_edge_list,
    to_graph6,
    write_edge_list,
)

import fixture_graphs as fx
from conftest import random_graph


def test_edge_list_round_trip():
    g = petersen()
    text = write_edge_list(g)
    h, labels = parse_edge_list(text)
    assert h == g
    assert labels == list(range(10))


def test_json_data_encodes_records():
    from dataclasses import dataclass
    from fractions import Fraction

    from sparse2dc.graph import PathDescriptor

    @dataclass(frozen=True)
    class Record:
        z: Fraction
        a: tuple
        runs: dict

    record = Record(Fraction(18, 7), (1, (2, 3), None, True),
                    {"p": [PathDescriptor((0, 4), (1, 2, 3))]})
    data = json_data(record)
    assert list(data) == ["z", "a", "runs"]
    assert data == {
        "z": "18/7",
        "a": [1, [2, 3], None, True],
        "runs": {"p": [{"endpoints": [0, 4], "internal": [1, 2, 3]}]},
    }


def test_edge_list_header_shape():
    text = write_edge_list(Graph(3, [(0, 2)]))
    assert text.splitlines()[0] == "3 1"
    assert text.splitlines()[1] == "0 2"


def test_edge_list_normalizes_sparse_labels():
    g, labels = parse_edge_list("3 2\n10 20\n20 30\n")
    assert g.n == 3 and g.m == 2
    assert labels == [10, 20, 30]


def test_edge_list_rejects_bad_counts():
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n0 1\n")


def test_edge_list_rejects_a_negative_edge_count(capsys, tmp_path):
    from sparse2dc import cli

    with pytest.raises(ValueError, match="declares -1 edges; the count must be nonnegative"):
        parse_edge_list("2 -1")
    path = tmp_path / "negative.txt"
    path.write_text("3 -2\n0 1\n")
    assert cli.main(["mad", "--input", str(path)]) == 2
    assert "declares -2 edges" in capsys.readouterr().err


def test_edge_list_rejects_oversized_header():
    # refused before anything of size n is allocated
    with pytest.raises(ValueError, match="at most 258047"):
        autodetect("1000000000 0")


def test_known_graph6_values():
    # K4 and the consecutively-labeled 5-cycle
    assert to_graph6(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])) == "C~"
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert to_graph6(c5) == "Dhc"
    assert from_graph6("Dhc") == c5


@given(st.integers(0, 500), st.integers(0, 16))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip_small(seed, n):
    g = random_graph(random.Random(seed), n, 0.4)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_round_trip_large_header():
    g = random_graph(random.Random(3), 70, 0.05)
    line = to_graph6(g)
    assert line.startswith("~")
    assert from_graph6(line) == g


def test_autodetect_both_formats():
    g = petersen()
    assert autodetect(write_edge_list(g)) == g
    assert autodetect(to_graph6(g)) == g


def test_autodetect_rejects_several_graph6_lines():
    with pytest.raises(ValueError, match="expected one graph"):
        autodetect("Bw\nDQc\n")


@pytest.mark.parametrize("text", ["Bw\n", ">>graph6<<Bw\n", "\n  Bw \n\n"])
def test_autodetect_reads_one_graph6_line(text):
    assert autodetect(text) == from_graph6("Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.mark.parametrize(
    "line",
    ["Bw??", "Bww", "D", "Dh", "Dhcc", "~?@~", "~?@~" + "?" * 1335],
    ids=["n3+2", "n3+1", "n5-2", "n5-1", "n5+1", "n127-1334", "n127+1"],
)
def test_graph6_rejects_a_body_of_the_wrong_length(line):
    # n = 3 needs exactly 1 body byte, n = 5 exactly 2, n = 127 exactly 1334
    with pytest.raises(ValueError, match="need exactly"):
        from_graph6(line)


@pytest.mark.parametrize(
    "line",
    ["0", "0" + "?" * 20, "~0??", "~?0?", "~??0" + "?" * 6, "\x7f"],
    ids=["n-15", "n-15+20", "long-1", "long-2", "long-3", "del"],
)
def test_graph6_rejects_a_size_header_byte_outside_63_126(line):
    # refused before n is computed: "0" once read as n = -15
    with pytest.raises(ValueError, match="invalid graph6 byte"):
        from_graph6(line)


def test_autodetect_rejects_trailing_graph6_bytes():
    with pytest.raises(ValueError, match="need exactly"):
        autodetect("Bw??\n")


def _from_graph6_by_bit_list(line: str) -> Graph:
    """The former decoder, kept as an oracle: it spells out every bit of
    the body as a list and walks all vertex pairs."""
    from sparse2dc.io import _g6_decode_n

    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    data = line.encode("ascii")
    n, off = _g6_decode_n(data)
    body = data[off:]
    size = -(-n * (n - 1) // 12)
    if len(body) != size:
        raise ValueError(
            f"graph6 body has {len(body)} bytes; {n} vertices need exactly {size}"
        )
    bits: list[int] = []
    for byte in body:
        val = byte - 63
        if not 0 <= val < 64:
            raise ValueError("invalid graph6 byte")
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def _outcome(decode, line):
    try:
        return decode(line)
    except ValueError as exc:
        return type(exc), str(exc)


def test_graph6_decoder_matches_the_bit_list_oracle_on_random_graphs():
    rng = random.Random(6)
    for p in (0.0, 0.01, 0.05, 0.3, 0.7, 1.0):
        for _ in range(6):
            line = to_graph6(random_graph(rng, rng.randint(0, 200), p))
            assert from_graph6(line) == _from_graph6_by_bit_list(line)


def test_graph6_decoder_matches_the_bit_list_oracle_on_random_bodies():
    # arbitrary body bytes, so the padding bits of the last byte are set too
    rng = random.Random(7)
    for n in [*range(0, 20), 62, 63, 64, 130, 200]:
        size = -(-n * (n - 1) // 12)
        header = to_graph6(Graph(n, []))[: -size or None]
        for _ in range(3):
            line = header + "".join(chr(rng.randrange(63, 127)) for _ in range(size))
            assert from_graph6(line) == _from_graph6_by_bit_list(line)


def _sparse_long_header_graphs():
    """Hub networks with 112-224 hubs and 2-subdivided skeletons: bodies of
    about 25-340 KB, nearly all ``?``, as the benchmark feeds the decoder."""
    rng = random.Random(9)
    for hubs in (112, 168, 224):
        g = None
        while g is None:
            try:
                g = random_hub_network(rng, hubs)
            except ValueError:
                pass
        yield g
    for size in (160, 320):
        yield subdivide(random_skeleton(rng, size, 7, rng.randint(0, 4)), 2)


def test_graph6_decoder_matches_the_bit_list_oracle_on_sparse_long_bodies():
    padded_bodies = 0
    for g in _sparse_long_header_graphs():
        line = to_graph6(g)
        assert line.startswith("~") and g.n > 500
        # the oracle walks all n(n-1)/2 pairs, so it reads each body once,
        # with every padding bit of the last byte set where it has any
        pad = -g.n * (g.n - 1) // 2 % 6
        if pad:
            line = line[:-1] + chr((ord(line[-1]) - 63 | (1 << pad) - 1) + 63)
            padded_bodies += 1
        assert from_graph6(line) == _from_graph6_by_bit_list(line) == g
    assert padded_bodies >= 3


@pytest.mark.parametrize(
    "line",
    ["Bw??", "Bww", "D", "Dh", "Dhcc", "~?@~", "~?@~" + "?" * 1335,
     "", "~", "~?@", "~~??????", "B!", "Dh ", "Bx", "D~~", "0", "0" + "?" * 20,
     "0" + "~" * 20, ">>graph6<<Dhc", "?", "@", "A_", "A`"],
)
def test_graph6_decoder_matches_the_bit_list_oracle_on_odd_lines(line):
    assert _outcome(from_graph6, line) == _outcome(_from_graph6_by_bit_list, line)


def _to_graph6_by_pair_loop(g: Graph) -> str:
    """The former encoder, kept as an oracle: it walks every vertex pair."""
    from sparse2dc.io import _g6_encode_n

    bits: list[int] = []
    for v in range(g.n):
        adj = set(g.adjacency[v])
        for u in range(v):
            bits.append(1 if u in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    out = bytearray(_g6_encode_n(g.n))
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return out.decode("ascii")


def _fixture_graphs():
    """Every graph ``fixture_graphs`` makes, each function at every argument."""
    for case in ("two-path", "three-path", "deg-three"):
        yield fx.weird_seven_local(case)
    for k in range(7):
        yield fx.sponsor_all_bad_local(k)
    for l in range(5):
        yield fx.sponsor_all_bad_same_far(l)
    for make in vars(fx).values():
        if inspect.isfunction(make) and make.__module__ == fx.__name__:
            params = inspect.signature(make).parameters.values()
            if all(p.default is not p.empty for p in params):
                yield make()


def test_graph6_encoder_matches_the_pair_loop_oracle():
    rng = random.Random(8)
    graphs = [
        random_graph(rng, rng.randint(0, 200), p)
        for p in (0.0, 0.01, 0.05, 0.3, 0.7, 1.0)
        for _ in range(6)
    ]
    fixtures = list(_fixture_graphs())
    assert len(fixtures) == 31
    for g in graphs + fixtures:
        assert to_graph6(g) == _to_graph6_by_pair_loop(g)
