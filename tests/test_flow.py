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


@pytest.mark.parametrize("u, v, bad", [(0, 5, 5), (5, 0, 5), (-1, 1, -1), (1, -1, -1), (2, 0, 2)])
def test_bad_node_rejected_before_any_change(u, v, bad):
    net = FlowNetwork(2)
    net.add_arc(0, 1, 4)
    with pytest.raises(ValueError, match=f"node {bad} outside 0..1"):
        net.add_arc(u, v, 3)
    assert (net.head, net.to, net.cap) == ([[0], [1]], [1, 0], [4, 0])
    assert net.max_flow(0, 1) == 4


@pytest.mark.parametrize("s, t, message", [
    (0, 0, "source and sink are both node 0"),
    (0, 5, "node 5 outside 0..1"),
    (-1, 1, "node -1 outside 0..1"),
    (2, 1, "node 2 outside 0..1"),
])
def test_bad_terminals_rejected(s, t, message):
    net = FlowNetwork(2)
    net.add_arc(0, 1, 4)
    with pytest.raises(ValueError, match=message):
        net.max_flow(s, t)
    assert net.cap == [4, 0]


@pytest.mark.parametrize("s", [-1, 5])
def test_bad_source_side_node_rejected(s):
    net = FlowNetwork(2)
    net.add_arc(0, 1, 4)
    with pytest.raises(ValueError, match=f"node {s} outside 0..1"):
        net.source_side(s)


def reference_max_flow(net: FlowNetwork, s: int, t: int) -> int:
    """Dinic's loop as first written, kept to pin the augmenting order."""
    head, to, cap = net.head, net.to, net.cap
    flow = 0
    while True:
        level = [-1] * net.size
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for i in head[u]:
                v = to[i]
                if cap[i] and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
            if level[t] >= 0:
                break
        if level[t] < 0:
            return flow
        it = [0] * net.size
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[i] for i in path)
                for i in path:
                    cap[i] -= pushed
                    cap[i ^ 1] += pushed
                flow += pushed
                for k, i in enumerate(path):
                    if not cap[i]:
                        break
                del path[k:]
                u = to[i ^ 1]
                continue
            arcs = head[u]
            j = it[u]
            next_level = level[u] + 1
            while j < len(arcs):
                i = arcs[j]
                if cap[i] and level[to[i]] == next_level:
                    break
                j += 1
            it[u] = j
            if j < len(arcs):
                path.append(i)
                u = to[i]
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
            else:
                break


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_max_flow_matches_reference_arc_for_arc(seed):
    """The same value, residual capacities and cut as the reference loop,
    from zero and warm-started from a flow that more arcs made non-maximal
    or that went to another sink."""
    rng = random.Random(seed)
    size = rng.randint(3, 40)
    net, _ = random_network(rng, size)
    s, t, other = rng.sample(range(size), 3)
    warm = rng.choice(["zero", "more arcs", "other sink"])
    if warm != "zero":
        reference_max_flow(net, s, t if warm == "more arcs" else other)
    if warm == "more arcs":
        for _ in range(rng.randint(1, size)):
            u, v = rng.sample(range(size), 2)
            net.add_arc(u, v, rng.randint(0, 9), rng.choice([0, rng.randint(0, 9)]))
    ours, theirs = net.copy(), net.copy()
    assert ours.max_flow(s, t) == reference_max_flow(theirs, s, t)
    assert ours.cap == theirs.cap
    assert ours.source_side(s) == theirs.source_side(s)
