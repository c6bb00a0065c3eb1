"""Vectorized numpy kernels over :class:`~repro.graph.csr.CSRGraph`.

These are the hot loops behind the paper's ball-growing metrics
(Section 3.2.1) and the Section 5 all-pairs machinery, rewritten from
per-node hash-table BFS into frontier-at-a-time array operations:

* :func:`bfs_levels` / :func:`multi_source_distances` — level-
  synchronous BFS producing dense int32 distance vectors (``-1`` marks
  unreached nodes);
* :func:`bfs_with_path_counts` — BFS with equal-cost shortest-path
  counting (the sigma of Section 5's traversal-set weights);
* :func:`policy_levels` — valley-free BFS over the (node, state)
  product graph from per-arc relationship codes, returning policy
  distances and the radius at which each arc joins the Appendix E
  policy ball;
* :func:`ball_members` — the index array of a ball, ascending;
* :func:`degree_vector` — all degrees as one array;
* :func:`induced_subgraph` — CSR-to-CSR subgraph slicing;
* :class:`BallBatch` — many balls sliced per numpy call, optionally
  keeping only each policy ball's arcs;
* :class:`FusedBatch` — a whole batch concatenated into one disjoint-
  union CSR with ``indptr``-style ball-offset segmentation, so one
  kernel sweep serves every ball (:func:`fused_bfs_levels`,
  :func:`fused_level_counts`, :func:`fused_degrees`);
* :func:`batch_vertex_cover_sizes` — the canonical matching/greedy
  vertex-cover pair per ball, and :func:`batch_biconnected_counts` —
  array-stack Tarjan block counting per ball, both over a fused batch
  (a single ball is a batch of one).

Every kernel is bitwise-equivalent to the dict-of-sets implementation it
replaces (asserted by ``repro selfcheck --family csr``/``kernels`` and
the property tests in ``tests/test_graph_csr.py``,
``tests/test_fused_batch.py`` and ``tests/test_policy_properties.py``):
distances, memberships and counts are identical; only internal ordering
conventions are canonicalised to ascending node index.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph

#: Distance value marking a node the BFS never reached.
UNREACHED = -1


class PathCountOverflow(OverflowError):
    """Equal-cost path counts exceeded the int64 range.

    Raised instead of silently wrapping; callers fall back to the exact
    big-integer dict implementation (:func:`repro.routing.shortest.
    shortest_path_dag` on a thawed graph).
    """


def _row_positions(indptr: np.ndarray, frontier: np.ndarray):
    """Arc positions of every frontier node's CSR row, concatenated.

    ``indptr`` must already be int64 (hoisted out of the BFS loop by the
    callers).  Returns ``(positions, counts)`` where ``positions``
    indexes ``indices`` (and any array aligned with it) and
    ``counts[k]`` is the row length of ``frontier[k]``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    # A running arange, shifted per row from the concatenation offset
    # to the row start.
    ends = np.cumsum(counts)
    positions = np.arange(total, dtype=np.int64)
    positions += np.repeat(starts - ends + counts, counts)
    return positions, counts


def arc_positions(csr: CSRGraph, tails, heads) -> np.ndarray:
    """Positions in ``csr.indices`` of the arcs ``tails[k] -> heads[k]``.

    ``tails`` and ``heads`` are node indices; the result is int64 with
    ``-1`` wherever the pair is not an arc.  Rows are sorted, so
    ``tail * n + head`` ascends over all arcs and one binary search
    locates every pair.
    """
    n = csr.number_of_nodes()
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if not csr.indices.size:
        return np.full(tails.size, -1, dtype=np.int64)
    arc_key = np.repeat(
        np.arange(n, dtype=np.int64) * n, np.diff(csr.indptr.astype(np.int64))
    )
    arc_key += csr.indices
    wanted = tails * n + heads
    pos = np.minimum(np.searchsorted(arc_key, wanted), arc_key.size - 1)
    return np.where(arc_key[pos] == wanted, pos, -1)


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """Concatenated neighbor indices of every frontier node.

    Returns ``(neighbors, counts)`` as :func:`_row_positions` does, with
    the positions resolved through ``indices``.
    """
    positions, counts = _row_positions(indptr, frontier)
    if not positions.size:
        return np.empty(0, dtype=np.int32), counts
    return indices[positions], counts


def _gather_neighbors(csr: CSRGraph, frontier: np.ndarray):
    """:func:`_gather_rows` against a graph's own arrays."""
    return _gather_rows(
        csr.indptr.astype(np.int64), csr.indices, np.asarray(frontier)
    )


def bfs_levels(
    csr: CSRGraph, source: int, max_depth: Optional[int] = None
) -> np.ndarray:
    """Hop distances from node index ``source`` to every node.

    Returns an int32 vector of length n with ``dist[i]`` the BFS
    distance of node ``i`` (``-1`` when unreached, or beyond
    ``max_depth``).  Expansion is level-at-a-time: with
    ``max_depth=0`` only the source is reached; with ``max_depth``
    at least the graph's eccentricity the result equals the unbounded
    BFS.
    """
    n = csr.number_of_nodes()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} nodes")
    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        neighbors, _counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if not fresh.size:
            break
        depth += 1
        # Marking distances first dedupes ``fresh`` for free; the next
        # frontier is then read back in ascending index order.
        dist[fresh] = depth
        frontier = np.flatnonzero(dist == depth)
    return dist


#: Maximum source count handled by the packed-bitmask simultaneous BFS
#: (one int64 bit per source, keeping clear of the sign bit).
_BITMASK_SOURCES_MAX = 62


def _multi_source_bitmask(
    csr: CSRGraph, sources: Sequence[int], max_depth: Optional[int]
) -> np.ndarray:
    """All sources' BFS levels in one synchronized sweep.

    Each node carries an int64 bitmask of the sources that have reached
    it; one level expands *every* source's frontier at once, so the
    graph's rows are gathered once per level instead of once per level
    per source.  Hop distances are unique, so the result is bitwise
    identical to stacking :func:`bfs_levels` rows.
    """
    n = csr.number_of_nodes()
    k = len(sources)
    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    src_arr = np.asarray(sources, dtype=np.int64)
    if np.any((src_arr < 0) | (src_arr >= n)):
        bad = src_arr[(src_arr < 0) | (src_arr >= n)][0]
        raise IndexError(f"source index {bad} out of range for {n} nodes")
    bits = np.arange(k, dtype=np.int64)
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    dist[bits, src_arr] = 0
    visited = np.zeros(n, dtype=np.int64)
    frontier_mask = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(visited, src_arr, np.int64(1) << bits)
    np.bitwise_or.at(frontier_mask, src_arr, np.int64(1) << bits)
    frontier = np.unique(src_arr)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        neighbors, counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        masks = np.repeat(frontier_mask[frontier], counts)
        frontier_mask[frontier] = 0
        # OR the propagated masks per target node: group equal targets
        # with a sort, then one C-speed segmented reduction.
        order = np.argsort(neighbors, kind="stable")
        targets = neighbors[order].astype(np.int64)
        starts = np.flatnonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        )
        merged = np.bitwise_or.reduceat(masks[order], starts)
        targets = targets[starts]
        fresh = merged & ~visited[targets]
        keep = fresh != 0
        if not np.any(keep):
            break
        depth += 1
        targets = targets[keep]
        fresh = fresh[keep]
        visited[targets] |= fresh
        frontier_mask[targets] = fresh
        # Unpack the new bits into per-source distance rows.
        rows, cols = np.nonzero((fresh[:, None] >> bits[None, :]) & 1)
        dist[cols, targets[rows]] = depth
        frontier = targets
    return dist


def multi_source_distances(
    csr: CSRGraph, sources: Sequence[int], max_depth: Optional[int] = None
) -> np.ndarray:
    """Stacked BFS distance vectors, one row per source index.

    Returns an int32 array of shape ``(len(sources), n)``; row ``k`` is
    ``bfs_levels(csr, sources[k], max_depth)``.  Up to
    :data:`_BITMASK_SOURCES_MAX` sources are swept simultaneously with
    per-node source bitmasks (hop distances are unique, so the fused
    sweep is bitwise identical to the per-source loop it replaces).
    """
    if 1 < len(sources) <= _BITMASK_SOURCES_MAX:
        return _multi_source_bitmask(csr, sources, max_depth)
    n = csr.number_of_nodes()
    out = np.empty((len(sources), n), dtype=np.int32)
    for k, source in enumerate(sources):
        out[k] = bfs_levels(csr, int(source), max_depth)
    return out


def bfs_with_path_counts(csr: CSRGraph, source: int):
    """BFS distances plus equal-cost shortest-path counts (sigma).

    Returns ``(dist, sigma)``: ``dist`` as in :func:`bfs_levels` and
    ``sigma[i]`` the number of distinct shortest paths from ``source``
    to node ``i`` (0 for unreached nodes, 1 for the source).  Raises
    :class:`PathCountOverflow` if a count leaves the int64 range — the
    caller then falls back to the exact big-int dict implementation.
    """
    n = csr.number_of_nodes()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} nodes")
    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    sigma = np.zeros(n, dtype=np.int64)
    dist[source] = 0
    sigma[source] = 1
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        neighbors, counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        contributions = np.repeat(sigma[frontier], counts)
        undiscovered = dist[neighbors] == UNREACHED
        targets = neighbors[undiscovered]
        if not targets.size:
            break
        np.add.at(sigma, targets, contributions[undiscovered])
        depth += 1
        dist[targets] = depth
        frontier = np.flatnonzero(dist == depth)
        if np.any(sigma[frontier] < 0):
            raise PathCountOverflow(
                f"shortest-path count exceeded int64 at BFS depth {depth}"
            )
    return dist, sigma


# ----------------------------------------------------------------------
# Valley-free policy BFS over the (node, state) product graph
# ----------------------------------------------------------------------

#: Arc codes of a valley-free annotation, aligned with ``csr.indices``
#: (:meth:`repro.routing.policy.Relationships.arc_codes`): what the
#: arc's head is to its tail.
ARC_SIBLING = 0
ARC_PROVIDER = 1
ARC_CUSTOMER = 2
ARC_PEER = 3
ARC_UNANNOTATED = 4

#: The valley-free automaton: ``_POLICY_NEXT[state, code]`` is the state
#: after crossing an arc of that code, ``-1`` where the arc is not
#: allowed.  State 0 (ascent) may climb, peer once or descend; state 1
#: (descent) only descends.  Unannotated arcs raise before this table
#: is read.
_POLICY_NEXT = np.array(
    [
        [0, 0, 1, 1, -1],
        [1, -1, 1, -1, -1],
    ],
    dtype=np.int8,
)

#: ``arc_radius`` of an arc that lies on no shortest policy path.
NO_RADIUS = int(np.iinfo(np.int32).max)


def policy_levels(csr: CSRGraph, codes: np.ndarray, source: int):
    """Valley-free distances and per-arc ball radii from ``source``.

    Level-synchronous BFS over the ``2n`` product states ``2 * node +
    state`` (state 0 climbs, state 1 descends; the source starts in
    ascent), keeping each level's shortest-path DAG arcs.  A reverse
    sweep over the levels then gives every state its ``key``: the
    smallest distance of an *optimal* state (one achieving its node's
    policy distance) reachable forward from it.

    Returns ``(dist, arc_radius)``: ``dist`` as in :func:`bfs_levels`
    with policy distances, and ``arc_radius[a]`` the smallest ``key`` of
    a DAG arc's head over the DAG arcs on arc ``a``'s undirected edge,
    in either direction (:data:`NO_RADIUS` when there is none).  The
    Appendix E policy ball of radius ``R`` is then the nodes with
    ``dist <= R`` plus the arcs with ``arc_radius <= R`` — exactly the
    links :func:`repro.routing.policy.policy_path_edges` collects.

    An unannotated arc (:data:`ARC_UNANNOTATED`) leaving a reached node
    raises ``KeyError``, as the dict BFS does on reaching it.
    """
    n = csr.number_of_nodes()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} nodes")
    codes = np.asarray(codes)
    if codes.shape != csr.indices.shape:
        raise ValueError(
            f"codes has shape {codes.shape}, expected {csr.indices.shape}"
        )
    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    sdist = np.full(2 * n, UNREACHED, dtype=np.int32)
    sdist[2 * source] = 0
    frontier = np.array([2 * source], dtype=np.int64)
    levels = []  # per level: (arc positions, tail states, head states)
    depth = 0
    while frontier.size:
        positions, counts = _row_positions(indptr, frontier >> 1)
        if not positions.size:
            break
        arc_codes = codes[positions]
        bad = arc_codes == ARC_UNANNOTATED
        if bad.any():
            k = int(np.argmax(bad))
            tail = int(np.repeat(frontier >> 1, counts)[k])
            head = int(indices[positions[k]])
            raise KeyError(
                f"edge ({csr.node_at(tail)!r}, {csr.node_at(head)!r}) "
                "has no relationship annotation"
            )
        tails = np.repeat(frontier, counts)
        nxt = _POLICY_NEXT[tails & 1, arc_codes]
        allowed = nxt >= 0
        positions = positions[allowed]
        tails = tails[allowed]
        heads = 2 * indices[positions].astype(np.int64) + nxt[allowed]
        fresh = heads[sdist[heads] == UNREACHED]
        if not fresh.size:
            break
        depth += 1
        sdist[fresh] = depth
        on_dag = sdist[heads] == depth
        levels.append((positions[on_dag], tails[on_dag], heads[on_dag]))
        frontier = np.flatnonzero(sdist == depth)

    pair = np.where(sdist >= 0, sdist, NO_RADIUS).reshape(n, 2)
    best = pair.min(axis=1)
    dist = np.where(best == NO_RADIUS, UNREACHED, best).astype(np.int32)
    key = np.full(2 * n, NO_RADIUS, dtype=np.int32)
    optimal = (pair == best[:, None]).ravel() & (sdist >= 0)
    key[optimal] = sdist[optimal]
    for _positions, tails, heads in reversed(levels):
        np.minimum.at(key, tails, key[heads])

    arc_radius = np.full(indices.size, NO_RADIUS, dtype=np.int32)
    if levels:
        positions = np.concatenate([level[0] for level in levels])
        tails = np.concatenate([level[1] for level in levels]) >> 1
        heads = np.concatenate([level[2] for level in levels])
        values = key[heads]
        reverse = arc_positions(csr, heads >> 1, tails)
        np.minimum.at(
            arc_radius,
            np.concatenate([positions, reverse]),
            np.concatenate([values, values]),
        )
    return dist, arc_radius


def ball_members(dist: np.ndarray, radius: int) -> np.ndarray:
    """Indices of the ball of ``radius`` hops, ascending.

    ``dist`` is a distance vector from :func:`bfs_levels`; the result is
    every index with ``0 <= dist <= radius``, in ascending index order —
    the canonical member ordering every CSR-era compute path shares.
    """
    return np.flatnonzero((dist != UNREACHED) & (dist <= radius)).astype(
        np.int32
    )


def degree_vector(csr: CSRGraph) -> np.ndarray:
    """All node degrees as an int32 vector aligned with node indices."""
    return np.diff(csr.indptr).astype(np.int32)


def level_counts(dist: np.ndarray) -> np.ndarray:
    """Node count at each BFS distance: ``out[h] == |{i: dist[i] == h}|``.

    The empty-reach case returns ``[0]`` so ``out`` is always indexable
    at distance 0.
    """
    reached = dist[dist != UNREACHED]
    if not reached.size:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(reached, minlength=int(reached.max()) + 1)


def induced_subgraph(csr: CSRGraph, members: np.ndarray) -> CSRGraph:
    """The sub-CSR induced by ``members`` (ascending index array).

    Rows stay sorted because the original rows are sorted and the
    member relabelling ``old index -> rank in members`` is monotone.
    The result's nodes are the member node objects in index order.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size and np.any(members[1:] <= members[:-1]):
        raise ValueError("members must be strictly ascending")
    n = csr.number_of_nodes()
    keep = np.zeros(n, dtype=bool)
    keep[members] = True
    rank = np.cumsum(keep) - 1  # old index -> new index, where kept
    neighbors, counts = _gather_neighbors(csr, members)
    kept_mask = keep[neighbors] if neighbors.size else np.empty(0, dtype=bool)
    row_ids = np.repeat(np.arange(members.size), counts)
    new_counts = np.bincount(row_ids[kept_mask], minlength=members.size)
    new_indptr = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    new_indices = rank[neighbors[kept_mask]].astype(np.int32)
    nodes: List = [csr.node_at(int(i)) for i in members]
    return CSRGraph(
        new_indptr.astype(np.int32), new_indices, nodes, name=csr.name
    )


class BallBatch:
    """Batched CSR slicing: many balls' induced subgraphs per numpy call.

    Construction gathers the CSR rows of *all* balls' members with one
    :func:`_gather_rows` call and computes every ball's membership mask,
    rank relabelling and kept-edge filter as whole-batch array
    operations (chunked so no intermediate exceeds ``chunk_elements``).
    :meth:`sub_csr` then just wraps the precomputed slices.

    The contract — asserted by the batching property tests — is that
    ``BallBatch(csr, members_list).sub_csr(i)`` is *bitwise identical*
    (same ``indptr``/``indices`` arrays, same node list) to
    ``induced_subgraph(csr, members_list[i])``, for any grouping of
    balls into batches.

    Policy balls (Appendix E) keep only the links on shortest policy
    paths: given ``arc_radius`` (aligned with ``csr.indices``, from
    :func:`policy_levels`) and one radius per ball in ``radii``, ball
    ``i`` drops every induced arc whose ``arc_radius`` exceeds
    ``radii[i]``.
    """

    __slots__ = ("csr", "_members", "_indptrs", "_indices")

    def __init__(
        self,
        csr: CSRGraph,
        members_list: Sequence[np.ndarray],
        arc_radius: Optional[np.ndarray] = None,
        radii: Optional[Sequence[int]] = None,
        chunk_elements: int = 1 << 23,
    ):
        self.csr = csr
        self._members = [np.asarray(m, dtype=np.int64) for m in members_list]
        for m in self._members:
            if m.size and np.any(m[1:] <= m[:-1]):
                raise ValueError("members must be strictly ascending")
        if (arc_radius is None) != (radii is None):
            raise ValueError("arc_radius and radii go together")
        if radii is not None:
            radii = np.asarray(radii, dtype=np.int64)
            if radii.shape != (len(self._members),):
                raise ValueError("radii needs one radius per ball")
        n = csr.number_of_nodes()
        indptr64 = csr.indptr.astype(np.int64)
        self._indptrs: List[np.ndarray] = []
        self._indices: List[np.ndarray] = []
        balls_per_chunk = max(1, chunk_elements // max(1, n))
        for lo in range(0, len(self._members), balls_per_chunk):
            hi = lo + balls_per_chunk
            self._slice_chunk(
                self._members[lo:hi],
                n,
                indptr64,
                arc_radius,
                None if radii is None else radii[lo:hi],
            )

    def _slice_chunk(
        self,
        chunk: List[np.ndarray],
        n: int,
        indptr64: np.ndarray,
        arc_radius: Optional[np.ndarray],
        radii: Optional[np.ndarray],
    ) -> None:
        sizes = np.array([m.size for m in chunk], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        if offsets[-1] == 0:
            for m in chunk:
                self._indptrs.append(np.zeros(m.size + 1, dtype=np.int32))
                self._indices.append(np.empty(0, dtype=np.int32))
            return
        mcat = np.concatenate(chunk)
        positions, counts = _row_positions(indptr64, mcat)
        neighbors = self.csr.indices[positions]
        member_ball = np.repeat(np.arange(len(chunk)), sizes)
        elem_ball = np.repeat(member_ball, counts)
        keep = np.zeros((len(chunk), n), dtype=bool)
        keep[member_ball, mcat] = True
        rank = np.cumsum(keep, axis=1, dtype=np.int32) - 1
        kept_mask = keep[elem_ball, neighbors]
        if radii is not None:
            kept_mask &= arc_radius[positions] <= radii[elem_ball]
        row_ids = np.repeat(np.arange(mcat.size), counts)
        kept_rows = row_ids[kept_mask]
        new_counts = np.bincount(kept_rows, minlength=mcat.size)
        kept_indices = rank[elem_ball[kept_mask], neighbors[kept_mask]].astype(
            np.int32
        )
        # ``kept_rows`` ascends, so each ball's kept edges are contiguous.
        boundaries = np.searchsorted(kept_rows, offsets)
        for b, m in enumerate(chunk):
            indptr = np.zeros(m.size + 1, dtype=np.int64)
            np.cumsum(new_counts[offsets[b] : offsets[b + 1]], out=indptr[1:])
            self._indptrs.append(indptr.astype(np.int32))
            self._indices.append(kept_indices[boundaries[b] : boundaries[b + 1]])

    def __len__(self) -> int:
        return len(self._members)

    def sub_csr(self, i: int) -> CSRGraph:
        """Ball ``i``'s induced subgraph, bitwise-equal to
        :func:`induced_subgraph` on the same members."""
        csr = self.csr
        nodes: List = [csr.node_at(int(j)) for j in self._members[i]]
        return CSRGraph(
            self._indptrs[i], self._indices[i], nodes, name=csr.name
        )


# ----------------------------------------------------------------------
# Fused batch execution: one disjoint-union CSR per BallBatch
# ----------------------------------------------------------------------

def _fused_offsets(node_counts, edge_counts):
    """Ball-offset segmentation arrays of a fused concatenation.

    Returns ``(node_offsets, edge_offsets)``, both int64 and of length
    ``len(node_counts) + 1`` — int64 deliberately: per-ball arrays are
    int32, but *cumulative* counts across a batch may cross the int32
    boundary, and the fused ``indptr``/``indices`` index with these
    offsets.
    """
    node_offsets = np.zeros(len(node_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(node_counts, dtype=np.int64), out=node_offsets[1:])
    edge_offsets = np.zeros(len(edge_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(edge_counts, dtype=np.int64), out=edge_offsets[1:])
    return node_offsets, edge_offsets


class FusedBatch:
    """A :class:`BallBatch` concatenated into one disjoint-union CSR.

    The balls' sub-CSRs are stacked in batch order with each ball's
    local node indices shifted by its node offset, producing a single
    valid CSR whose connected components never cross balls.  Kernels
    can therefore sweep *all* balls in one pass (BFS frontiers of
    disjoint components cannot interact), and a segmented result is
    read back per ball through ``node_offsets`` — the same
    ``indptr``-style segmentation idea one level up.

    The canonical order is the one :meth:`BallBatch.sub_csr` already
    fixes (ascending original node index within each ball), so every
    fused kernel is bitwise-comparable to the dict oracle on
    ``sub_csr(i).thaw()`` — asserted by the ``kernels`` selfcheck family
    and ``tests/test_fused_batch.py``.
    """

    __slots__ = (
        "batch",
        "node_offsets",
        "edge_offsets",
        "indptr",
        "indices",
        "ball_of_node",
    )

    def __init__(self, batch: BallBatch):
        self.batch = batch
        node_counts = [m.size for m in batch._members]
        edge_counts = [ix.size for ix in batch._indices]
        self.node_offsets, self.edge_offsets = _fused_offsets(
            node_counts, edge_counts
        )
        total_nodes = int(self.node_offsets[-1])
        indptr = np.zeros(total_nodes + 1, dtype=np.int64)
        ptr_pieces = [
            ip[1:].astype(np.int64) + off
            for ip, off in zip(batch._indptrs, self.edge_offsets[:-1].tolist())
        ]
        if ptr_pieces:
            np.concatenate(ptr_pieces, out=indptr[1:])
        self.indptr = indptr
        idx_pieces = [
            ix.astype(np.int64) + off
            for ix, off in zip(batch._indices, self.node_offsets[:-1].tolist())
        ]
        self.indices = (
            np.concatenate(idx_pieces)
            if idx_pieces
            else np.empty(0, dtype=np.int64)
        )
        self.ball_of_node = np.repeat(
            np.arange(len(batch), dtype=np.int64), node_counts
        )

    def __len__(self) -> int:
        return len(self.batch)

    def ball_slice(self, i: int) -> slice:
        """The fused-array node span of ball ``i``."""
        return slice(int(self.node_offsets[i]), int(self.node_offsets[i + 1]))

    def ball_size(self, i: int) -> int:
        return int(self.node_offsets[i + 1] - self.node_offsets[i])

    def ball_edge_count(self, i: int) -> int:
        """Undirected edge count of ball ``i``."""
        return int(self.edge_offsets[i + 1] - self.edge_offsets[i]) // 2

    def sub_csr(self, i: int) -> CSRGraph:
        """Ball ``i`` as a standalone CSR (delegates to the batch)."""
        return self.batch.sub_csr(i)

    def local_csr(self, i: int) -> CSRGraph:
        """Ball ``i``'s arrays wrapped with ``range`` labels.

        O(1) labels instead of materialising the original node objects;
        only safe for label-agnostic kernels (the bisection solver, the
        cover/biconnectivity counters).
        """
        return CSRGraph(
            self.batch._indptrs[i],
            self.batch._indices[i],
            range(self.ball_size(i)),
            name=self.batch.csr.name,
        )


def fused_bfs_levels(fused: FusedBatch, sources: np.ndarray) -> np.ndarray:
    """Per-ball BFS levels over the fused union, one sweep for all.

    ``sources`` holds one *fused-array* node index per ball (``-1``
    skips that ball).  Because the union's components never cross
    balls, the synchronized sweep assigns exactly the distances a
    per-ball :func:`bfs_levels` would — bitwise, since hop distances
    are unique.  Skipped balls stay entirely :data:`UNREACHED`.
    """
    n = int(fused.node_offsets[-1])
    dist = np.full(n, UNREACHED, dtype=np.int32)
    src = np.asarray(sources, dtype=np.int64)
    src = src[src >= 0]
    if not src.size:
        return dist
    dist[src] = 0
    frontier = np.unique(src)
    depth = 0
    indptr, indices = fused.indptr, fused.indices
    while frontier.size:
        neighbors, _counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if not fresh.size:
            break
        depth += 1
        dist[fresh] = depth
        frontier = np.flatnonzero(dist == depth)
    return dist


def fused_degrees(fused: FusedBatch) -> np.ndarray:
    """Every ball's degree vectors, concatenated (int32).

    ``fused_degrees(f)[f.ball_slice(i)]`` equals
    ``degree_vector(f.sub_csr(i))``.
    """
    return np.diff(fused.indptr).astype(np.int32)


def fused_level_counts(fused: FusedBatch, dist: np.ndarray) -> List[np.ndarray]:
    """Per-ball :func:`level_counts`, via one segmented bincount.

    ``dist`` is a fused distance vector (:func:`fused_bfs_levels`);
    the result list's entry ``i`` is bitwise equal to
    ``level_counts(dist[fused.ball_slice(i)])``.
    """
    num_balls = len(fused)
    if num_balls == 0:
        return []
    reached = dist != UNREACHED
    local_max = np.full(num_balls, -1, dtype=np.int64)
    if bool(reached.any()):
        np.maximum.at(
            local_max,
            fused.ball_of_node[reached],
            dist[reached].astype(np.int64),
        )
    width = int(local_max.max()) + 1
    if width <= 0:
        return [np.zeros(1, dtype=np.int64) for _ in range(num_balls)]
    keys = fused.ball_of_node[reached] * width + dist[reached]
    table = np.bincount(keys, minlength=num_balls * width).reshape(
        num_balls, width
    )
    return [
        table[b, : int(local_max[b]) + 1].copy()
        if local_max[b] >= 0
        else np.zeros(1, dtype=np.int64)
        for b in range(num_balls)
    ]


def batch_matching_cover_sizes(fused: FusedBatch) -> np.ndarray:
    """Per-ball handshake-matching cover sizes, one fused run (int64).

    The handshake rounds run on the union: each round's proposals and
    mutual matches in one ball depend only on that ball's flags (edges
    never cross balls), so the union's fixpoint restricted to a ball is
    exactly the ball's own fixpoint — a finished ball simply stays
    unchanged while slower balls keep matching.
    """
    num_balls = len(fused)
    matched = _handshake_matching_arrays(fused.indptr, fused.indices)
    if not bool(matched.any()):
        return np.zeros(num_balls, dtype=np.int64)
    return np.bincount(
        fused.ball_of_node[matched], minlength=num_balls
    ).astype(np.int64)


def batch_vertex_cover_sizes(fused: FusedBatch) -> List[int]:
    """Per-ball smaller of the matching and greedy covers (Figure 8 a–c).

    Value-equal to :func:`repro.graph.cover.vertex_cover_size` on each
    thawed ball.  The matching half runs once over the union; the
    greedy half is an inherently sequential argmax loop and stays per
    ball — but on the batch's local arrays directly, skipping the
    node-label materialisation ``sub_csr`` would pay.
    """
    matching = batch_matching_cover_sizes(fused)
    out: List[int] = []
    for b in range(len(fused)):
        indices = fused.batch._indices[b]
        if not indices.size:
            out.append(0)
            continue
        greedy = _greedy_cover_arrays(fused.batch._indptrs[b], indices)
        out.append(min(int(matching[b]), greedy))
    return out


def batch_biconnected_counts(fused: FusedBatch) -> List[int]:
    """Per-ball biconnected-component counts, one Tarjan pass.

    Counts one block per tree-edge pop event with ``low[child] >=
    depth[parent]`` — the same events on which the dict twin
    (:func:`repro.graph.components.biconnected_components`) emits a
    component; no edge stack is kept.  The union's biconnected
    components are exactly the union of each ball's (blocks never span
    disconnected parts), so attributing each pop event to its node's
    ball reproduces the per-ball counts exactly.
    """
    counts = [0] * len(fused)
    n = int(fused.node_offsets[-1])
    indptr = fused.indptr.tolist()
    indices = fused.indices.tolist()
    ball_of = fused.ball_of_node.tolist()
    depth = [-1] * n
    low = [0] * n
    parent = [-1] * n
    ptr = list(indptr[:-1])
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        low[root] = 0
        stack = [root]
        while stack:
            u = stack[-1]
            if ptr[u] < indptr[u + 1]:
                v = indices[ptr[u]]
                ptr[u] += 1
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    low[v] = depth[v]
                    parent[v] = u
                    stack.append(v)
                elif v != parent[u] and depth[v] < low[u]:
                    low[u] = depth[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[u] >= depth[p]:
                        counts[ball_of[u]] += 1
                    if low[u] < low[p]:
                        low[p] = low[u]
    return counts


# ----------------------------------------------------------------------
# Vertex cover kernels (canonical twins live in repro.graph.cover)
# ----------------------------------------------------------------------

def _handshake_matching_arrays(indptr, indices) -> np.ndarray:
    """Matched flags of the canonical handshake matching, vectorized.

    Rounds mirror :func:`repro.graph.cover._handshake_matching`: every
    unmatched node proposes its minimum-index unmatched neighbor
    (``np.minimum.at`` over the live edge set) and mutual proposals
    match.  Terminates because the minimum-index active node is always
    mutually matched each round.  Only touches ``indptr``/``indices``,
    never node labels.
    """
    n = len(indptr) - 1
    matched = np.zeros(n, dtype=bool)
    if not len(indices):
        return matched
    src = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(np.asarray(indptr, dtype=np.int64))
    )
    dst = np.asarray(indices, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    while True:
        live = ~(matched[src] | matched[dst])
        proposal = np.full(n, n, dtype=np.int64)
        np.minimum.at(proposal, src[live], dst[live])
        candidates = np.flatnonzero((proposal < n) & (proposal > idx))
        if candidates.size:
            candidates = candidates[
                proposal[proposal[candidates]] == candidates
            ]
        if not candidates.size:
            return matched
        matched[candidates] = True
        matched[proposal[candidates]] = True


def _greedy_cover_arrays(indptr, indices) -> int:
    """Size of the canonical max-degree greedy cover (label-agnostic).

    Mirrors :func:`repro.graph.cover._greedy_cover`: repeatedly remove
    the maximum-residual-degree node (``np.argmax`` breaks ties toward
    the minimum index, exactly like the twin's strict-``>`` scan).
    """
    deg = np.diff(np.asarray(indptr, dtype=np.int64))
    uncovered = int(deg.sum()) // 2
    if uncovered == 0:
        return 0
    removed = np.zeros(len(deg), dtype=bool)
    picked = 0
    while uncovered > 0:
        best = int(np.argmax(np.where(removed, -1, deg)))
        removed[best] = True
        uncovered -= int(deg[best])
        row = indices[indptr[best] : indptr[best + 1]]
        live = row[~removed[row]]
        deg[live] -= 1
        picked += 1
    return picked
