"""Small deterministic max-flow / min-cut (Dinic) on integer capacities."""

from __future__ import annotations

from collections import deque

INF = 10**9


class FlowNetwork:
    def __init__(self, n: int) -> None:
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along one s-t path of the level graph; 0 if none is left.

        An explicit path stack, so level graphs deeper than the interpreter's
        recursion limit are fine; `it[u]` skips the arcs of u found dead.
        """
        path: list[int] = []
        u = s
        while u != t:
            while it[u] < len(self.head[u]):
                e = self.head[u][it[u]]
                if self.cap[e] > 0 and level[self.to[e]] == level[u] + 1:
                    path.append(e)
                    u = self.to[e]
                    break
                it[u] += 1
            else:  # u is a dead end: retreat along the path
                if not path:
                    return 0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
        pushed = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= pushed
            self.cap[e ^ 1] += pushed
        return pushed

    def source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual graph (after max_flow)."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
