"""Seeded inputs, operations and independent answer checks for each workload.

A workload is a fixed list of operations built from the seed.  One
operation is the in-process equivalent of one CLI call without process
start and JSON output: its input is text (a graph6 line, a vertex pair or
a hunt seed) and, for graph input, it includes the ``io.autodetect`` parse.

The graph6 text is written by this module's own encoder, and every answer
is checked against this module's own edge lists, never against the
library's ``Graph``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from sparse2dc import coloring, families, graph, io, potential, reductions, verify

WORKLOADS = ("large-solve", "hunt-stream", "exact-oracles")

#: Size classes of ``large-solve`` as (name, hub count, skeleton vertices,
#: accepted vertex range).  Hub networks with h hubs have about 9h vertices;
#: a 2-subdivided skeleton on s vertices has about 3.5s.
SOLVE_CLASSES = (
    ("n500", 56, 160, (450, 650)),
    ("n1000", 112, 320, (900, 1300)),
)

#: Per-scale sizes.  "full" is what the benchmark measures; "tiny" keeps
#: every operation family and check for the self-tests.
SCALES = {
    "full": {
        # instances per pass and class: (hub networks, skeletons)
        "solve_mix": {"n500": (4, 4), "n1000": (1, 1)},
        "hunt_ops": 1600,
        "chi2_cubic": 80,
        "chi2_n": (20, 22, 24, 26),
        "mad_hubs": (112, 168, 224) * 2,
        # loaded hub networks, each followed by its own pair queries
        "rho_graphs": 8,
        "rho_hubs": 112,
        "rho_queries": 15,
    },
    "tiny": {
        "solve_mix": {"n500": (1, 1), "n1000": (0, 0)},
        "hunt_ops": 6,
        "chi2_cubic": 3,
        "chi2_n": (12, 14),
        "mad_hubs": (8,),
        "rho_graphs": 1,
        "rho_hubs": 8,
        "rho_queries": 5,
    },
}

#: Node budget of each ``chi2_exact`` call.  An interval answer counts as a
#: failed operation.
CHI2_BUDGET = 200_000

#: Moore fixtures and their known 2-distance chromatic numbers.
MOORE = ((lambda: families.cycle(5), 5), (families.petersen, 10),
         (families.hoffman_singleton, 50))


class CheckFailed(Exception):
    """An answer disagrees with the benchmark's own oracle."""


@dataclass(frozen=True)
class Op:
    """One operation: its family, its text input and what the checks need.

    ``n`` and ``edges`` are the benchmark's own copy of the input graph (for
    a rho_star query, of the loaded graph); ``expect`` is a known answer.
    """

    family: str
    text: str
    n: int = 0
    edges: tuple = ()
    expect: object = None

    def graph6(self) -> str | None:
        """The input graph as a graph6 line (None for a hunt seed)."""
        if self.family == "hunt":
            return None
        if self.family == "rho_star":
            return encode_graph6(self.n, self.edges)
        return self.text

    def replay(self) -> str:
        """A shell line that repeats this operation through the CLI."""
        if self.family == "hunt":
            return f"sparse2dc hunt --seed {self.text} --budget 1"
        command = {"chi2": f"chi2 --budget {CHI2_BUDGET}", "mad": "mad", "load": "mad",
                   "rho_star": "rho-star --vertices " + self.text.replace(" ", ",")
                   }.get(self.family, "color --constructive")
        return f"echo '{self.graph6()}' | sparse2dc {command} --input -"


# ---------------------------------------------------------------------------
# graph6 encoding, independent of sparse2dc.io


def encode_graph6(n: int, edges) -> str:
    """graph6 line for a simple graph on 0..n-1 (n < 258048)."""
    bits = bytearray(b"0" * (n * (n - 1) // 2))
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = ord("1")
    bits += b"0" * (-len(bits) % 6)
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    out += bytes(int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# generators


def _hub_network(rng: random.Random, hubs: int) -> graph.Graph:
    for _ in range(200):
        try:
            g = families.random_hub_network(rng, hubs)
        except ValueError:
            continue
        if g.max_degree() == 7:
            return g
    raise RuntimeError(f"no hub network with {hubs} hubs in 200 tries")


def _subdivided_skeleton(rng: random.Random, size: int) -> graph.Graph:
    for _ in range(400):
        skeleton = families.random_skeleton(rng, size, 7, rng.randint(0, 4))
        if skeleton.max_degree() == 7:
            return graph.subdivide(skeleton, 2)
    raise RuntimeError(f"no skeleton on {size} vertices with max degree 7")


def _solve_instance(rng, make, size, band) -> graph.Graph:
    """A generated graph inside the class band with Δ = 7 and mad <= 18/7."""
    for _ in range(50):
        g = make(rng, size)
        if not band[0] <= g.n <= band[1] or g.max_degree() != 7:
            continue
        if potential.mad_exact(g)[0] <= potential.DENSITY_BOUND:
            return g
    raise RuntimeError("no instance in the size band passed the filters")


def random_cubic(rng: random.Random, n: int) -> tuple[int, tuple]:
    """A uniform-ish simple 3-regular graph by the pairing model."""
    for _ in range(10_000):
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return n, tuple(sorted(edges))
    raise RuntimeError(f"pairing model found no simple cubic graph on {n}")


def _graph_op(family: str, g: graph.Graph, expect=None) -> Op:
    edges = tuple(g.edges())
    return Op(family, encode_graph6(g.n, edges), g.n, edges, expect)


def build(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The workload's operation list; the same seed gives the same list."""
    size = SCALES[scale]
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "large-solve":
        for name, hubs, skeleton, band in SOLVE_CLASSES:
            n_hub, n_skel = size["solve_mix"][name]
            if scale == "tiny":
                hubs, skeleton, band = 8, 12, (1, 10_000)
            for _ in range(n_hub):
                ops.append(_graph_op(f"solve_{name}", _solve_instance(rng, _hub_network, hubs, band)))
            for _ in range(n_skel):
                ops.append(_graph_op(f"solve_{name}", _solve_instance(rng, _subdivided_skeleton, skeleton, band)))
    elif workload == "hunt-stream":
        ops = [Op("hunt", str(rng.randrange(2**31))) for _ in range(size["hunt_ops"])]
    elif workload == "exact-oracles":
        for make, chi2 in MOORE:
            ops.append(_graph_op("chi2", make(), chi2))
        for i in range(size["chi2_cubic"]):
            n, edges = random_cubic(rng, size["chi2_n"][i % len(size["chi2_n"])])
            ops.append(Op("chi2", encode_graph6(n, edges), n, edges))
        for hubs in size["mad_hubs"]:
            ops.append(_graph_op("mad", _hub_network(rng, hubs)))
        for _ in range(size["rho_graphs"]):
            load = _graph_op("load", _hub_network(rng, size["rho_hubs"]))
            ops.append(load)
            for _ in range(size["rho_queries"]):
                u, v = rng.sample(range(load.n), 2)
                ops.append(Op("rho_star", f"{u} {v}", load.n, load.edges))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# operations


def run(op: Op, state: dict):
    """Execute one operation through the library; returns its raw result.

    Library functions are looked up on their modules at call time, so the
    traced run's rebinding reaches these calls too.
    """
    if op.family == "hunt":
        return verify.hunt(int(op.text), budget=1)
    if op.family == "rho_star":
        u, v = (int(x) for x in op.text.split())
        return potential.rho_star(state["loaded"], {u, v})
    g = io.autodetect(op.text)
    if op.family.startswith("solve_"):
        return reductions.constructive_color(g)
    if op.family == "chi2":
        return coloring.chi2_exact(g, budget=CHI2_BUDGET)
    if op.family == "mad":
        return potential.mad_exact(g)
    if op.family == "load":
        state["loaded"] = g
        return g.n, g.m
    raise ValueError(f"unknown operation family {op.family!r}")


# ---------------------------------------------------------------------------
# independent answer checks


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _inside(edges, subset) -> int:
    return sum(1 for u, v in edges if u in subset and v in subset)


def _check_coloring(op: Op, phi) -> list[int]:
    colors = [phi.colors.get(v) for v in range(op.n)]
    if phi.k != reductions.PALETTE or len(phi.colors) != op.n:
        raise CheckFailed(f"coloring is not a total {reductions.PALETTE}-coloring")
    if any(c is None or not 1 <= c <= reductions.PALETTE for c in colors):
        raise CheckFailed("color outside the palette")
    adj = _adjacency(op.n, op.edges)
    for s in range(op.n):
        depth = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if depth[x] == 2:
                continue
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
                    if colors[y] == colors[s]:
                        raise CheckFailed(f"vertices {s} and {y} at distance {depth[y]} share a color")
    return colors


def _greedy_square_bound(op: Op) -> int:
    """Colors used by first-fit on the square: an upper bound on chi2."""
    adj = _adjacency(op.n, op.edges)
    color: dict[int, int] = {}
    for v in range(op.n):
        near = set(adj[v]).union(*(adj[w] for w in adj[v])) - {v}
        used = {color[w] for w in near if w in color}
        color[v] = next(c for c in range(1, op.n + 2) if c not in used)
    return max(color.values(), default=0)


def check(op: Op, result) -> object:
    """Check ``result`` with the benchmark's own oracle and return the exact
    answer that goes into the digest.  Raises CheckFailed on a wrong answer.

    A budget-exhausted chi2 interval and hunt findings are returned as
    answers; :func:`failure_of` classifies them as failed operations.
    """
    if op.family.startswith("solve_"):
        return {"colors": _check_coloring(op, result)}
    if op.family == "hunt":
        if result.instances not in (0, 1):
            raise CheckFailed(f"hunt with budget 1 reported {result.instances} instances")
        return {"instances": result.instances,
                "findings": [[f["check"], f["detail"], f["graph6"]] for f in result.findings]}
    if op.family == "chi2":
        if isinstance(result, tuple):
            low, high = result
            if not 1 <= low <= high:
                raise CheckFailed(f"chi2 interval {result} is empty")
            return {"chi2_interval": [low, high]}
        if op.expect is not None and result != op.expect:
            raise CheckFailed(f"chi2 = {result}, expected {op.expect}")
        delta = max((len(a) for a in _adjacency(op.n, op.edges)), default=0)
        if not min(op.n, delta + 1) <= result <= _greedy_square_bound(op):
            raise CheckFailed(f"chi2 = {result} outside [Δ+1, first-fit bound]")
        return {"chi2": result}
    if op.family == "mad":
        value, witness = result
        if not witness or not witness <= set(range(op.n)):
            raise CheckFailed("mad witness is empty or out of range")
        if Fraction(2 * _inside(op.edges, witness), len(witness)) != value:
            raise CheckFailed(f"mad witness recounts to a density other than {value}")
        if value < Fraction(2 * len(op.edges), op.n):
            raise CheckFailed(f"mad {value} is below the average degree")
        return {"mad": str(value), "witness": len(witness)}
    if op.family == "load":
        if result != (op.n, len(op.edges)):
            raise CheckFailed(f"parsed (n, m) = {result}, expected {(op.n, len(op.edges))}")
        return {"n": op.n, "m": len(op.edges)}
    if op.family == "rho_star":
        u, v = (int(x) for x in op.text.split())
        witness = result.witness
        if not {u, v} <= witness or not witness <= set(range(op.n)):
            raise CheckFailed("rho* witness misses a forced vertex or leaves the graph")
        if 9 * len(witness) - 7 * _inside(op.edges, witness) != result.value:
            raise CheckFailed(f"rho* witness recounts to a value other than {result.value}")
        if result.value > 18 - 7 * _inside(op.edges, {u, v}):
            raise CheckFailed("rho* exceeds the potential of the forced pair itself")
        return {"rho_star": result.value, "witness": len(witness)}
    raise ValueError(f"unknown operation family {op.family!r}")


def failure_of(answer: dict) -> str | None:
    """The failure type of an answer that is correct but not a success."""
    if "chi2_interval" in answer:
        return "BudgetExhausted"
    if answer.get("findings"):
        return "HuntFinding:" + answer["findings"][0][0]
    return None
