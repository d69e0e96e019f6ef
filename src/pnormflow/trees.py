"""Spanning forests: construction, demand routing, fundamental cycles, LCA.

Shared by the static optimizer (cycle-space parameterization), the exact
min-ratio backend (degenerate all-zero-gradient case) and the tree-collection
backend (fundamental-cycle candidates).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import _UnionFind


class SpanningForest:
    """Rooted spanning forest of a multigraph.

    parent_vertex[v] is -1 at roots; parent_edge[v] is the edge id linking v
    to its parent and parent_sign[v] is +1 when that edge is stored as
    (v, parent), i.e. traversing child -> parent follows the stored
    orientation.
    """

    def __init__(self, n: int, tails: Sequence[int], heads: Sequence[int],
                 edge_order: Sequence[int]):
        self.n = n
        parent_vertex = np.full(n, -1, dtype=np.int64)
        parent_edge = np.full(n, -1, dtype=np.int64)
        parent_sign = np.zeros(n, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)

        sets = _UnionFind(n)
        tree_edges: list[int] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in edge_order:
            u, v = tails[e], heads[e]
            if sets.union(u, v):
                tree_edges.append(e)
                adj[u].append((e, v))
                adj[v].append((e, u))

        # Orient the forest by BFS so parents precede children in `order`.
        order: list[int] = []
        seen = np.zeros(n, dtype=bool)
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            order.append(root)
            while queue:
                x = queue.pop()
                for e, y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent_vertex[y] = x
                        parent_edge[y] = e
                        parent_sign[y] = 1 if tails[e] == y else -1
                        depth[y] = depth[x] + 1
                        order.append(y)
                        queue.append(y)

        self.parent_vertex = parent_vertex
        self.parent_edge = parent_edge
        self.parent_sign = parent_sign
        self.depth = depth
        self.order = np.asarray(order, dtype=np.int64)
        self.tree_edges = np.asarray(tree_edges, dtype=np.int64)
        self._lift: np.ndarray | None = None
        self._levels: list[np.ndarray] | None = None

    def tree_edge_mask(self, m: int) -> np.ndarray:
        mask = np.zeros(m, dtype=bool)
        mask[self.tree_edges] = True
        return mask

    def route_demand(self, d: np.ndarray, m: int) -> np.ndarray:
        """The unique flow supported on the forest with net demand d.

        Requires each component's demand to sum to zero; the flow on the edge
        above v carries the total demand of v's subtree.
        """
        subtree = np.asarray(d, dtype=float).copy()
        flow = np.zeros(m)
        for v in self.order[::-1]:
            p = self.parent_vertex[v]
            if p < 0:
                continue
            e = self.parent_edge[v]
            # +flow enters the child side when the child is the head.
            flow[e] = subtree[v] if self.heads_child(v) else -subtree[v]
            subtree[p] += subtree[v]
        return flow

    def heads_child(self, v: int) -> bool:
        """True when the edge above v is stored with v as its head."""
        return self.parent_sign[v] == -1

    def prefix_sums(self, values: np.ndarray, signed: bool) -> np.ndarray:
        """Per-vertex sums of `values` along the root -> v tree path.

        When signed, each edge contributes +value if the path traverses it
        tail -> head and -value otherwise; unsigned sums are plain totals
        (used for lengths).
        """
        if self._levels is None:
            # Non-root vertices grouped by depth, shallowest level first.
            by_depth = np.argsort(self.depth, kind="stable")
            top = int(self.depth.max(initial=0))
            bounds = np.searchsorted(self.depth[by_depth],
                                     np.arange(1, top + 1))
            self._levels = np.split(by_depth, bounds)[1:]
        out = np.zeros(self.n)
        pv, pe, ps = self.parent_vertex, self.parent_edge, self.parent_sign
        for level in self._levels:
            val = values[pe[level]]
            # Traversal parent -> child runs against parent_sign.
            out[level] = out[pv[level]] + (-ps[level] * val if signed else val)
        return out

    def _build_lift(self) -> None:
        levels = max(1, int(np.max(self.depth)).bit_length())
        lift = np.full((levels, self.n), -1, dtype=np.int64)
        lift[0] = self.parent_vertex
        for k in range(1, levels):
            prev = lift[k - 1]
            lift[k] = np.where(prev >= 0, prev[prev], -1)
        self._lift = lift

    def lca_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Lowest common ancestor of each pair (us[i], vs[i]); every pair
        must share a component."""
        if self._lift is None:
            self._build_lift()
        lift = self._lift
        us = np.array(us, dtype=np.int64)
        vs = np.array(vs, dtype=np.int64)
        swap = self.depth[us] < self.depth[vs]
        tmp = us[swap].copy()
        us[swap] = vs[swap]
        vs[swap] = tmp
        diff = self.depth[us] - self.depth[vs]
        for k in range(lift.shape[0]):
            step = ((diff >> k) & 1).astype(bool)
            us[step] = lift[k][us[step]]
        for k in range(lift.shape[0] - 1, -1, -1):
            lu, lv = lift[k][us], lift[k][vs]
            step = (us != vs) & (lu != lv)
            us[step] = lu[step]
            vs[step] = lv[step]
        return np.where(us == vs, us, self.parent_vertex[us])

    def fundamental_cycles(self, edges: np.ndarray, tails: np.ndarray,
                           heads: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All cycles closed by the off-tree `edges` at once, as triplets
        (cycle index into `edges`, edge id, orientation sign); cycle j holds
        the same edges and signs as fundamental_cycle(edges[j]).

        Both endpoints climb towards their meeting vertex, the deeper one
        first, so the loop runs at most twice the forest depth.
        """
        edges = np.asarray(edges, dtype=np.int64)
        index = np.arange(edges.size, dtype=np.int64)
        cyc, eids = [index], [edges]
        signs = [np.ones(edges.size, dtype=np.int64)]
        u, v = tails[edges], heads[edges]
        depth, pv, pe, ps = (self.depth, self.parent_vertex, self.parent_edge,
                             self.parent_sign)
        while index.size:
            du, dv = depth[u], depth[v]
            up_u, up_v = du >= dv, dv >= du
            cyc += [index[up_v], index[up_u]]
            eids += [pe[v[up_v]], pe[u[up_u]]]
            signs += [ps[v[up_v]], -ps[u[up_u]]]
            v = np.where(up_v, pv[v], v)
            u = np.where(up_u, pv[u], u)
            active = u != v
            index, u, v = index[active], u[active], v[active]
        return np.concatenate(cyc), np.concatenate(eids), np.concatenate(signs)

    def fundamental_cycle(self, e: int, tails: Sequence[int], heads: Sequence[int]
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Cycle closed by off-tree edge e: e traversed tail -> head, then the
        tree path head -> tail. Returns (edge ids, orientation signs): e,
        then the path from the head up to the meeting vertex, then the path
        from the tail up to it, traversed downwards."""
        u, v = int(tails[e]), int(heads[e])
        depth, pv, pe, ps = (self.depth, self.parent_vertex, self.parent_edge,
                             self.parent_sign)
        ev, sv, eu, su = [], [], [], []
        # The deeper endpoint climbs (the head on ties) until they meet.
        while u != v:
            if depth[v] >= depth[u]:
                ev.append(int(pe[v]))
                sv.append(int(ps[v]))
                v = int(pv[v])
            else:
                eu.append(int(pe[u]))
                su.append(-int(ps[u]))
                u = int(pv[u])
        return (np.asarray([e] + ev + eu, dtype=np.int64),
                np.asarray([1] + sv + su, dtype=np.int64))
