"""Spanning forests: construction, demand routing, fundamental cycles, LCA.

Shared by the static optimizer (starting flow and cycle-space
parameterization), which builds one small forest per solve or carries one
across solves, the solver, which seeds the exact oracle with prefix sums
over that forest, and the tree-collection backend (fundamental-cycle
candidates), which builds dozens of forests over thousands of edges per
rebuild. Every edge order is a stack of rows, one forest per row, and a
single order is a one-row stack. Kruskal runs on plain Python ints over
the graph layer's component labels, one row at a time; the forests are
stacked as one, forest i's vertex v at i * n + v, and oriented by two
scipy searches over the whole stack, so that the backend's path sums and
LCA batches run as whole-array passes over all of its forests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from .graph import _Components

# Pairs per pass of lca_many.
_LCA_BLOCK = 1 << 14


def _python_ints(seq: Sequence[int]) -> Sequence[int]:
    """seq with an ndarray turned into a list: indexing an ndarray element
    by element costs a numpy scalar per access."""
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


def _kruskal(n: int, tails: Sequence[int], heads: Sequence[int],
             row: np.ndarray) -> tuple[list[int], list[int]]:
    """Kruskal over the edge order `row`: the tree edges in the order
    taken, and each tree's smallest vertex.

    The trees are the graph layer's component labels, so testing a scanned
    edge takes two list reads; most scanned edges close a cycle. The scan
    stops once it holds n - 1 tree edges, where no later edge can join two
    trees; on graphs with about ten edges per vertex that is a third of the
    way in. So the row becomes Python ints 4n entries at a time, not all
    at once.
    """
    sets = _Components(n)
    label = sets.label
    taken: list[int] = []
    if n > 1:
        for at in range(0, row.size, 4 * n):
            for e in row[at:at + 4 * n].tolist():
                if label[tails[e]] != label[heads[e]]:
                    sets.union(tails[e], heads[e])
                    taken.append(e)
                    if len(taken) == n - 1:
                        return taken, [0]
    firsts: dict[int, int] = {}
    for v in range(n):
        firsts.setdefault(label[v], v)
    return taken, list(firsts.values())


class SpanningForest:
    """Rooted spanning forests of a multigraph, one per row of an edge
    order, stacked as one.

    parent_vertex[v] is -1 at roots; parent_edge[v] is the edge id linking v
    to its parent and parent_sign[v] is +1 when that edge is stored as
    (v, parent), i.e. traversing child -> parent follows the stored
    orientation.

    `edge_order` is a (k, m) array of k edge orders, or a single order
    (a range, list or 1-D array), which is a one-row stack. Row i's forest
    has its vertex v at i * n + v, so `n` is k times the vertex count, and
    edge ids are kept: `tree_edges` concatenates the rows' tree edges, so
    an id may repeat. Kruskal scans each row and stops once it holds n - 1
    tree edges; `tree_edges` keeps the order in which they were taken. Each
    tree is rooted at its smallest vertex. `order` is a depth-first
    preorder, each row's forest one block of it and every subtree one
    contiguous block starting at its root; children come in the order
    their edges were taken. So each row's slice of every field equals that
    row's one-row build, shifted by i * n. Pairs passed to lca_many must
    come from one row, like any pair must share a component.

    prefix_sums runs one vectorized pass per depth level. lca_many answers
    a batch by range minima over `order` (Bender and Farach-Colton, "The
    LCA Problem Revisited"), from a sparse table built on first use.
    fundamental_cycle walks a batch of cycles at once.
    """

    def __init__(self, n: int, tails: Sequence[int], heads: Sequence[int],
                 edge_order: Sequence[int]):
        tail_ids, head_ids = _python_ints(tails), _python_ints(heads)
        rows = np.atleast_2d(np.asarray(edge_order, dtype=np.int64))
        self._orient_stack(n, np.asarray(tails), np.asarray(heads), [
            _kruskal(n, tail_ids, head_ids, row) for row in rows])
        self._levels: list[np.ndarray] | None = None
        self._lca: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _orient_stack(self, n: int, tails: np.ndarray, heads: np.ndarray,
                      rows: list[tuple[list[int], list[int]]]) -> None:
        """Orient the stacked forests of `rows` (each row's tree edges and
        roots) by two scipy searches, each linear in the stack's size.

        Each tree edge gives two links, tail -> head and head -> tail, side
        by side, and a virtual vertex links to every root; sorted by link
        and then position, each vertex's links keep the order Kruskal took
        their edges, and the roots increase. A breadth-first search from the
        virtual vertex finds the parents, which are the trees' parents as the
        tree path to the root is unique; depth follows by pointer jumping and
        each tree edge's child is the endpoint whose parent is the other one.
        The preorder comes from a depth-first search over the first-child,
        next-sibling form of the stack: each vertex points at its first
        child and then at its next sibling, and each root at the next root.
        There every vertex has at most two out-edges, so scipy's search,
        which rescans a vertex's out-edges each time it returns to it, stays
        linear on trees of high degree.
        """
        size = n * len(rows)
        tree_edges = np.array([e for taken, _ in rows for e in taken],
                              dtype=np.int64)
        shift = np.repeat(np.arange(0, size, n),
                          [len(taken) for taken, _ in rows])
        t, h = tails[tree_edges] + shift, heads[tree_edges] + shift
        roots = np.array([i * n + r for i, (_, firsts) in enumerate(rows)
                          for r in firsts], dtype=np.int64)
        links = np.concatenate((np.stack((t, h), axis=1).ravel(),
                                np.full(roots.size, size)))
        ends = np.concatenate((np.stack((h, t), axis=1).ravel(), roots))
        indptr = np.zeros(size + 2, dtype=np.int64)
        np.cumsum(np.bincount(links, minlength=size + 1), out=indptr[1:])
        # Unique keys: numpy's unstable sort of them is about three times
        # as fast as its stable sort of the links. scipy's searches take a
        # row's out-edges in stored order.
        by_link = np.argsort(links * links.size + np.arange(links.size))
        graph = sp.csr_matrix((np.ones(ends.size), ends[by_link], indptr),
                              shape=(size + 1,) * 2)
        found, pred = breadth_first_order(graph, size, directed=True)
        pred = pred[:size].astype(np.int64)
        parent_vertex = np.where(pred < size, pred, -1)
        child = np.where(parent_vertex[t] == h, t, h)
        parent_edge = np.full(size, -1, dtype=np.int64)
        parent_edge[child] = tree_edges
        parent_sign = np.zeros(size, dtype=np.int64)
        parent_sign[child] = np.where(child == t, 1, -1)
        # depth[v] counts the tree edges from v up to up[v].
        up = np.where(parent_vertex >= 0, parent_vertex, np.arange(size))
        depth = (parent_vertex >= 0).astype(np.int64)
        while True:
            hop = up[up]
            if np.array_equal(hop, up):
                break
            depth += depth[up]
            up = hop

        # The search lists each vertex's children together, in link order,
        # when it reaches the vertex, so after the virtual vertex and the
        # roots `found` holds the children grouped by parent.
        kids = found[1 + roots.size:].astype(np.int64)
        dad = parent_vertex[kids]
        first = np.ones(kids.size, dtype=bool)
        first[1:] = dad[1:] != dad[:-1]
        later = np.flatnonzero(~first[1:])
        # Row v: v's first child, then v's next sibling; -1 where none.
        out = np.full((size, 2), -1, dtype=np.int64)
        out[dad[first], 0] = kids[first]
        out[kids[later], 1] = kids[later + 1]
        out[roots[:-1], 1] = roots[1:]
        held = out >= 0
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(held.sum(axis=1), out=indptr[1:])
        siblings = sp.csr_matrix((np.ones(indptr[-1]), out[held], indptr),
                                 shape=(size, size))
        order = depth_first_order(siblings, roots[0], directed=True,
                                  return_predecessors=False)

        self.n = size
        self.parent_vertex = parent_vertex
        self.parent_edge = parent_edge
        self.parent_sign = parent_sign
        self.depth = depth
        self.order = order.astype(np.int64)
        self.tree_edges = tree_edges

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

    def _build_lca(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each vertex's position in `order`, a depth-first preorder, a
        sparse table of range minima over the preorder's keys
        (depth << bits) + parent, where n < 2^bits, and floor(log2(j)) for
        each range length j.

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
        table[0] = ((self.depth << n.bit_length()) + pv)[order]
        for k in range(1, rows):
            half = 1 << (k - 1)
            table[k] = table[k - 1]
            np.minimum(table[k - 1, :-half], table[k - 1, half:],
                       out=table[k, :-half])
        log2 = np.zeros(n + 1, dtype=np.int64)
        log2[1:] = np.frexp(np.arange(1, n + 1))[1] - 1
        return pos, table, log2

    def lca_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Lowest common ancestor of each pair (us[i], vs[i]); every pair
        must share a component. Pairs go through _LCA_BLOCK at a time,
        which bounds the temporaries of a batch over a whole stack."""
        if self._lca is None:
            self._lca = self._build_lca()
        pos, table, log2 = self._lca
        flat, width = table.ravel(), self.n
        parent_bits = (1 << self.n.bit_length()) - 1
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.empty(us.size, dtype=np.int64)
        for at in range(0, us.size, _LCA_BLOCK):
            block = slice(at, at + _LCA_BLOCK)
            at_u, at_v = pos[us[block]], pos[vs[block]]
            same = at_u == at_v
            # Positions lo + 1..hi, covered by two runs of 2^k in row k; a
            # pair of one vertex reads a valid dummy range.
            hi = np.maximum(at_u, at_v)
            lo = np.minimum(at_u, at_v) - same
            k = log2[hi - lo]
            row = k * width + 1
            key = np.minimum(flat[row + lo], flat[row + hi - (1 << k)])
            out[block] = np.where(same, us[block], key & parent_bits)
        return out

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
