"""Spanning forests: construction, demand routing, fundamental cycles, LCA.

Shared by the static optimizer (starting flow and cycle-space
parameterization) and the tree-collection backend (fundamental-cycle
candidates), which builds dozens of forests over thousands of edges per
run. So a forest is built on plain Python lists and becomes numpy arrays
only at the end, and the backend stacks its forests into one
(`SpanningForest.disjoint_union`) so that path sums and LCA batches run as
whole-array passes over all of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import _UnionFind


def _python_ints(seq: Sequence[int]) -> Sequence[int]:
    """seq with an ndarray turned into a list: indexing an ndarray element
    by element costs a numpy scalar per access."""
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


class SpanningForest:
    """Rooted spanning forest of a multigraph.

    parent_vertex[v] is -1 at roots; parent_edge[v] is the edge id linking v
    to its parent and parent_sign[v] is +1 when that edge is stored as
    (v, parent), i.e. traversing child -> parent follows the stored
    orientation.

    Kruskal scans `edge_order` and stops once it holds n - 1 tree edges,
    where no later edge can join two trees; `tree_edges` keeps the order in
    which they were taken. `order` is a depth-first preorder, each tree
    rooted at its smallest vertex and children in the order their edges
    were taken, so every subtree is one contiguous block starting at its
    root. prefix_sums runs one vectorized pass per depth level. lca_many
    answers a batch by range minima over `order` (Bender and Farach-Colton,
    "The LCA Problem Revisited"), from a sparse table built on first use.
    fundamental_cycle walks a batch of cycles at once. disjoint_union
    stacks forests into one, so the tree backend takes path sums and builds
    one LCA table over all of its forests at once.
    """

    def __init__(self, n: int, tails: Sequence[int], heads: Sequence[int],
                 edge_order: Sequence[int]):
        self.n = n
        tails, heads = _python_ints(tails), _python_ints(heads)
        sets = _UnionFind(n)
        tree_edges: list[int] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in _python_ints(edge_order):
            if len(tree_edges) == n - 1:
                # A spanning tree; no later edge can join two sets.
                break
            u, v = tails[e], heads[e]
            if sets.union(u, v):
                tree_edges.append(e)
                adj[u].append((e, v))
                adj[v].append((e, u))

        # Orient each tree from its smallest vertex. A vertex joins `order`
        # when popped and its children are pushed last to first, so `order`
        # is a depth-first preorder: every subtree is one contiguous block.
        parent_vertex = [-1] * n
        parent_edge = [-1] * n
        parent_sign = [0] * n
        depth = [0] * n
        seen = [False] * n
        order: list[int] = []
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                x = stack.pop()
                order.append(x)
                for e, y in reversed(adj[x]):
                    if not seen[y]:
                        seen[y] = True
                        parent_vertex[y] = x
                        parent_edge[y] = e
                        parent_sign[y] = 1 if tails[e] == y else -1
                        depth[y] = depth[x] + 1
                        stack.append(y)

        self.parent_vertex = np.array(parent_vertex, dtype=np.int64)
        self.parent_edge = np.array(parent_edge, dtype=np.int64)
        self.parent_sign = np.array(parent_sign, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.order = np.array(order, dtype=np.int64)
        self.tree_edges = np.array(tree_edges, dtype=np.int64)
        self._levels: list[np.ndarray] | None = None
        self._lca: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def disjoint_union(cls, forests: Sequence[SpanningForest]
                       ) -> SpanningForest:
        """The forests side by side as one forest over the same edge ids.

        Forest i's vertex v becomes vertex offset_i + v, where offset_i is
        the vertex count of the forests before it (i * n when all have n
        vertices); parent edges and signs are kept. No Kruskal pass runs.
        `tree_edges` concatenates the forests' tree edges, so an edge id may
        repeat. Pairs passed to lca_many must come from one forest, like any
        pair must share a component.
        """
        offsets = np.cumsum([0] + [f.n for f in forests[:-1]])
        union = cls.__new__(cls)
        union.n = int(sum(f.n for f in forests))
        union.parent_vertex = np.concatenate([
            np.where(f.parent_vertex >= 0, f.parent_vertex + shift, -1)
            for f, shift in zip(forests, offsets)])
        union.order = np.concatenate([f.order + shift
                                      for f, shift in zip(forests, offsets)])
        for name in ("parent_edge", "parent_sign", "depth", "tree_edges"):
            setattr(union, name,
                    np.concatenate([getattr(f, name) for f in forests]))
        union._levels = None
        union._lca = None
        return union

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
            flow[e] = subtree[v] if self.parent_sign[v] == -1 else -subtree[v]
            subtree[p] += subtree[v]
        return flow

    def _depth_levels(self) -> list[np.ndarray]:
        """Non-root vertices grouped by depth, shallowest level first, each
        level in increasing vertex order."""
        if self._levels is None:
            by_depth = np.argsort(self.depth, kind="stable")
            top = int(self.depth.max(initial=0))
            bounds = np.searchsorted(self.depth[by_depth],
                                     np.arange(1, top + 1))
            self._levels = np.split(by_depth, bounds)[1:]
        return self._levels

    def prefix_sums(self, values: np.ndarray, signed: bool) -> np.ndarray:
        """Per-vertex sums of `values` along the root -> v tree path.

        When signed, each edge contributes +value if the path traverses it
        tail -> head and -value otherwise; unsigned sums are plain totals
        (used for lengths).
        """
        out = np.zeros(self.n)
        pv, pe, ps = self.parent_vertex, self.parent_edge, self.parent_sign
        for level in self._depth_levels():
            val = values[pe[level]]
            # Traversal parent -> child runs against parent_sign.
            out[level] = out[pv[level]] + (-ps[level] * val if signed else val)
        return out

    def _build_lca(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's position in `order`, a depth-first preorder, and a
        sparse table of range minima over the preorder's keys depth * n +
        parent.

        In a preorder every subtree is contiguous, so for distinct u, v the
        positions after the earlier one up to the later one hold the child
        of their LCA on the path to the later vertex and nothing shallower;
        the shallowest vertices there are all children of the LCA, so the
        minimum key names it. Row k holds the minimum over 2^k positions.
        """
        n, pv, order = self.n, self.parent_vertex, self.order
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        # Query ranges stay inside one component, the block of `order` from
        # its root up to the next root.
        starts = np.flatnonzero(pv[order] < 0)
        rows = int(np.diff(starts, append=n).max(initial=1)).bit_length()
        table = np.empty((rows, n), dtype=np.int64)
        table[0] = (self.depth * n + pv)[order]
        for k in range(1, rows):
            half = 1 << (k - 1)
            table[k] = table[k - 1]
            np.minimum(table[k - 1, :-half], table[k - 1, half:],
                       out=table[k, :-half])
        return pos, table

    def lca_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Lowest common ancestor of each pair (us[i], vs[i]); every pair
        must share a component."""
        if self._lca is None:
            self._lca = self._build_lca()
        pos, table = self._lca
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        at_u, at_v = pos[us], pos[vs]
        same = at_u == at_v
        hi = np.maximum(at_u, at_v)
        # Positions lo + 1..hi, covered by two runs of 2^k; a pair of one
        # vertex reads a valid dummy range.
        lo = np.where(same, hi - 1, np.minimum(at_u, at_v))
        k = np.frexp(hi - lo)[1] - 1
        key = np.minimum(table[k, lo + 1], table[k, hi + 1 - (1 << k)])
        return np.where(same, us, key % self.n)

    def fundamental_cycle(self, edges: np.ndarray, u: np.ndarray,
                          v: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cycles closed by the off-tree `edges`, whose tails are the
        forest vertices u and heads v, as triplets (cycle index into
        `edges`, edge id, orientation sign). Cycle j is edges[j] traversed
        tail -> head, then the tree path from the head up to the meeting
        vertex, then the path from the tail up to it, traversed downwards;
        its triplets come in that order.

        Both endpoints climb towards their meeting vertex, the deeper one
        first, so the loop runs at most twice the forest depth.
        """
        edges = np.asarray(edges, dtype=np.int64)
        index = np.arange(edges.size, dtype=np.int64)
        head_side = [(index, edges, np.ones(edges.size, dtype=np.int64))]
        tail_side = []
        depth, pv, pe, ps = (self.depth, self.parent_vertex, self.parent_edge,
                             self.parent_sign)
        while index.size:
            du, dv = depth[u], depth[v]
            up_u, up_v = du >= dv, dv >= du
            head_side.append((index[up_v], pe[v[up_v]], ps[v[up_v]]))
            tail_side.append((index[up_u], pe[u[up_u]], -ps[u[up_u]]))
            v = np.where(up_v, pv[v], v)
            u = np.where(up_u, pv[u], u)
            active = u != v
            index, u, v = index[active], u[active], v[active]
        cyc, eids, signs = zip(*(head_side + tail_side))
        return np.concatenate(cyc), np.concatenate(eids), np.concatenate(signs)
