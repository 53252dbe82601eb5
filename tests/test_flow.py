"""Dinic max-flow: flow and cut certificates, and a brute-force min cut."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sparse2dc.flow import FlowNetwork


def random_network(rng: random.Random, size: int):
    """A network with one-way, two-way and antiparallel arcs, and the
    capacities each arc pair started with."""
    net = FlowNetwork(size)
    start = []
    for _ in range(rng.randint(0, 3 * size)):
        u, v = rng.sample(range(size), 2)
        forward = rng.randint(0, 9)
        reverse = rng.choice([0, 0, rng.randint(0, 9)])
        net.add_arc(u, v, forward, reverse)
        start += [forward, reverse]
    return net, start


def cut_capacity(net: FlowNetwork, start: list[int], side) -> int:
    """Starting capacity of the arcs leaving ``side``."""
    return sum(start[i] for u in side for i in net.head[u] if net.to[i] not in side)


def brute_force_min_cut(net: FlowNetwork, start: list[int], s: int, t: int) -> int:
    inner = [x for x in range(net.size) if x not in (s, t)]
    return min(
        cut_capacity(net, start, {s, *extra})
        for k in range(len(inner) + 1)
        for extra in combinations(inner, k)
    )


@given(st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_max_flow_certificate(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 10)
    net, start = random_network(rng, size)
    s, t = rng.sample(range(size), 2)
    value = net.max_flow(s, t)

    # net flow u -> v on each arc pair, read off the residual capacities
    flow = [start[i] - net.cap[i] for i in range(len(start))]
    assert all(c >= 0 for c in net.cap)
    excess = [0] * size
    for i, f in enumerate(flow):
        excess[net.to[i]] += f
    assert [x for node, x in enumerate(excess) if node not in (s, t)] == [0] * (size - 2)
    assert excess[t] == value == -excess[s]

    side = net.source_side(s)
    assert s in side and t not in side
    assert value == cut_capacity(net, start, side)
    assert value == brute_force_min_cut(net, start, s, t)


@pytest.mark.parametrize("capacity, reverse", [(-1, 0), (0, -1), (3, -2)])
def test_negative_capacity_rejected(capacity, reverse):
    with pytest.raises(ValueError):
        FlowNetwork(2).add_arc(0, 1, capacity, reverse)
