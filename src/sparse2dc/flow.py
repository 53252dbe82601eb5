"""Integer max-flow / min-cut (Dinic) used by the closure reductions.

Capacities stay in machine integers; callers emulate infinite arcs with
``1 + sum of finite capacities`` so that every min cut is finite.
"""

from __future__ import annotations


class FlowNetwork:
    """Directed flow network over nodes 0..size-1."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        # arcs stored as parallel arrays; arc i^1 is the reverse of arc i
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int, reverse: int = 0) -> None:
        """Arc u -> v with ``capacity``, paired with v -> u of ``reverse``.
        A node outside 0..size-1 or a negative capacity is a ValueError, and
        leaves the network unchanged."""
        if capacity < 0 or reverse < 0 or not (0 <= u < self.size and 0 <= v < self.size):
            bad = [x for x in (u, v) if not 0 <= x < self.size]
            raise ValueError(f"node {bad[0]} outside 0..{self.size - 1}" if bad
                             else "negative capacity")
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(reverse)

    def copy(self, extra: int = 0) -> FlowNetwork:
        """This network with its current flow, plus ``extra`` new nodes
        numbered after the last; the copy shares no list with the original."""
        net = type(self)(self.size + extra)
        net.head[:self.size] = [arcs[:] for arcs in self.head]
        net.to = self.to[:]
        net.cap = self.cap[:]
        return net

    def max_flow(self, s: int, t: int) -> int:
        """Exact max-flow value from s to t (Dinic's algorithm), augmenting
        whatever flow the network already carries; returns the flow added.
        A node outside 0..size-1, or s = t, is a ValueError."""
        size = self.size
        for x in (s, t):
            if not 0 <= x < size:
                raise ValueError(f"node {x} outside 0..{size - 1}")
        if s == t:
            raise ValueError(f"source and sink are both node {s}")
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            # BFS levels; nodes beyond t's level cannot lie on a shortest path
            level = [-1] * size
            level[s] = 0
            queue = [s]
            for u in queue:
                next_level = level[u] + 1
                for i in head[u]:
                    if cap[i]:
                        v = to[i]
                        if level[v] < 0:
                            level[v] = next_level
                            queue.append(v)
                if level[t] >= 0:
                    break
            if level[t] < 0:
                return flow
            # blocking flow by depth-first search along the level graph;
            # ``it[u]`` skips the arcs of u already found saturated or dead
            it = [0] * size
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(map(cap.__getitem__, path))
                    for i in path:
                        cap[i] -= pushed
                        cap[i ^ 1] += pushed
                    flow += pushed
                    # retreat to the tail of the first saturated arc
                    for k, i in enumerate(path):
                        if not cap[i]:
                            break
                    del path[k:]
                    u = to[i ^ 1]
                    continue
                arcs = head[u]
                j, end = it[u], len(arcs)
                next_level = level[u] + 1
                while j < end:
                    i = arcs[j]
                    if cap[i] and level[to[i]] == next_level:
                        break
                    j += 1
                it[u] = j
                if j < end:
                    path.append(i)
                    u = to[i]
                elif path:
                    level[u] = -1  # dead end: no arc will enter u again
                    u = to[path.pop() ^ 1]
                else:
                    break

    def source_side(self, s: int) -> frozenset[int]:
        """Nodes reachable from s in the residual network (a min cut side).
        A node outside 0..size-1 is a ValueError."""
        if not 0 <= s < self.size:
            raise ValueError(f"node {s} outside 0..{self.size - 1}")
        head, to, cap = self.head, self.to, self.cap
        seen = {s}
        queue = [s]
        for u in queue:
            for i in head[u]:
                v = to[i]
                if cap[i] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)
