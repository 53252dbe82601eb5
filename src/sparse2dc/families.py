"""Named graphs and seeded random generators used as fixtures and corpus."""

from __future__ import annotations

import random

from .graph import Graph, subdivide


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def hoffman_singleton() -> Graph:
    """The 7-regular Moore graph on 50 vertices (diameter 2, girth 5).

    Standard pentagon/pentagram construction: vertex (0, h, j) sits on
    pentagon h, vertex (1, i, j) on pentagram i, and pentagon vertex j is
    joined to pentagram vertex h*i + j (mod 5).
    """

    def pent(h: int, j: int) -> int:
        return 5 * h + j

    def gram(i: int, j: int) -> int:
        return 25 + 5 * i + j

    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((pent(h, j), pent(h, (j + 1) % 5)))
            edges.append((gram(h, j), gram(h, (j + 2) % 5)))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((pent(h, j), gram(i, (h * i + j) % 5)))
    return Graph(50, edges)


def spider(legs: int, leg_length: int) -> Graph:
    """A star whose every edge is a path of the given length."""
    if legs < 1 or leg_length < 1:
        raise ValueError("spider needs positive legs and lengths")
    edges = []
    n = 1
    for _ in range(legs):
        chain = [0] + list(range(n, n + leg_length))
        n += leg_length
        edges.extend(zip(chain, chain[1:]))
    return Graph(n, edges)


def triangle_gadget(delta: int, with_triangle: bool = True) -> Graph:
    """Three hubs sharing pendant common-neighbor groups.

    With the triangle present the graph has girth 3 and 2-distance
    chromatic number floor(3*delta/2)+1; without it, girth 4 and
    floor(3*delta/2)-1.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    x, y, z = 0, 1, 2
    edges = [(x, y), (y, z), (x, z)] if with_triangle else []
    groups = [
        (x, y, delta // 2 - 1),
        (x, z, (delta + 1) // 2),
        (y, z, delta // 2),
    ]
    n = 3
    for a, b, size in groups:
        for _ in range(size):
            edges.extend([(a, n), (b, n)])
            n += 1
    return Graph(n, edges)


def _random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_skeleton(
    rng: random.Random,
    n: int,
    hub_degree: int,
    extra_edges: int,
) -> Graph:
    """Connected skeleton with min degree >= 2 and one hub of fixed degree.

    Built from a random tree: leaves are paired with extra edges, the hub
    is topped up to ``hub_degree``, and a few extra chords are thrown in.
    The caller subdivides this to push the girth up and the density down.
    """
    if n < hub_degree + 1:
        raise ValueError("skeleton too small for the requested hub degree")
    edges = set()
    degree = [0] * n

    def add(u: int, v: int) -> bool:
        if u == v:
            return False
        e = (min(u, v), max(u, v))
        if e in edges:
            return False
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
        return True

    for e in _random_tree(rng, n):
        add(*e)

    hub = 0
    others = [v for v in range(n) if v != hub]
    rng.shuffle(others)
    for v in others:
        if degree[hub] >= hub_degree:
            break
        add(hub, v)

    # pair up remaining degree-1 vertices so the minimum degree reaches 2
    leaves = [v for v in range(n) if degree[v] == 1]
    rng.shuffle(leaves)
    for i in range(0, len(leaves) - 1, 2):
        if not add(leaves[i], leaves[i + 1]):
            add(leaves[i], rng.randrange(n))
    for v in range(n):
        tries = 0
        while degree[v] < 2 and tries < 20:
            add(v, rng.randrange(n))
            tries += 1

    for _ in range(extra_edges):
        add(rng.randrange(n), rng.randrange(n))
    return Graph(n, sorted(edges))


def random_hub_network(rng: random.Random, hubs: int = 5) -> Graph:
    """Degree-7 hubs joined by a forest of 3-paths plus 2-path filler.

    Every hub edge starts a run of 2-vertices ending at another hub, so
    the graph is full of long-run structure; a spanning tree of 3-paths
    keeps the density at or below 18/7 (the 2-path filler alone would
    exceed it).  Parity of the leftover degree budget is settled with one
    1-path when needed.
    """
    if hubs < 4 or hubs % 2:
        raise ValueError("hub networks need an even count of at least 4 hubs")
    edges: list[tuple[int, int]] = []
    n = hubs
    degree = [0] * hubs

    def run(a: int, b: int, k: int) -> None:
        nonlocal n
        chain = [a] + list(range(n, n + k)) + [b]
        n += k
        edges.extend(zip(chain, chain[1:]))
        degree[a] += 1
        degree[b] += 1

    order = list(range(hubs))
    rng.shuffle(order)
    for i in range(1, hubs):
        parents = [order[j] for j in range(i) if degree[order[j]] < 7]
        if not parents:
            raise ValueError("tree construction ran out of hub capacity")
        run(rng.choice(parents), order[i], 3)
    # occasional extra 3-path: creates a cycle of 3-paths
    roomy = [v for v in range(hubs) if degree[v] < 7]
    if rng.random() < 0.3 and len(roomy) >= 2:
        a, b = rng.sample(roomy, 2)
        run(a, b, 3)

    # every run consumes two hub slots, so an even hub count keeps the
    # leftover degree budget 7h - 2R pairable
    open_slots = [v for v in range(hubs) for _ in range(7 - degree[v])]
    rng.shuffle(open_slots)
    for i in range(0, len(open_slots), 2):
        a, b = open_slots[i], open_slots[i + 1]
        if a == b:
            # swap with a later slot on a different hub; a failure here is
            # a bad shuffle, which the caller retries
            for j in range(i + 2, len(open_slots)):
                if open_slots[j] != a:
                    open_slots[i + 1], open_slots[j] = open_slots[j], open_slots[i + 1]
                    b = open_slots[i + 1]
                    break
            else:
                raise ValueError("unpairable leftover hub slots")
        run(a, b, 2)
    return Graph(n, edges)


def decorated_tree(
    rng: random.Random,
    n: int,
    hub_degree: int,
    pendant_paths: int,
    subdivision: int,
) -> Graph:
    """Random tree with a hub, pendant paths, and subdivided edges."""
    edges = set(
        (min(e), max(e)) for e in _random_tree(rng, max(n, hub_degree + 1))
    )
    g = Graph(max(n, hub_degree + 1), sorted(edges))
    # top the hub up to the requested degree with fresh leaves
    total = g.n
    extra = []
    while len(g.adjacency[0]) + len(extra) < hub_degree:
        extra.append((0, total))
        total += 1
    g = Graph(total, list(g.edges()) + extra)
    for _ in range(pendant_paths):
        anchor = rng.randrange(g.n)
        length = rng.randint(1, 3)
        chain = [anchor] + list(range(g.n, g.n + length))
        g = Graph(g.n + length, list(g.edges()) + list(zip(chain, chain[1:])))
    return subdivide(g, subdivision)
