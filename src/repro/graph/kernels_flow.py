"""CSR flow kernels: max flow / min cut and the balanced-bipartition
solver behind the resilience metric.

The dict twin is :mod:`repro.graph.partition` (multilevel FM with exact
max-flow boundary refinement) driven by :func:`repro.metrics.resilience.
resilience_of`.  This module re-implements the same *canonical*
algorithm over CSR arrays:

* :func:`max_flow_min_cut` — BFS-augmenting-path (Edmonds–Karp) max
  flow over Python lists, with the residual-reachable source side of
  the min cut.  Capacities are Python ints, so the solver is exact at
  any capacity.  The flow value and the residual-reachable set are
  unique — identical for *every* max flow — so the kernel agrees with
  the twin's Dinic solver exactly.
* :func:`bisection_cut_csr` / :func:`resilience_csr_batch` — bitwise
  mirrors of :func:`repro.graph.partition.bisection_cut_size` and, per
  ball of a fused batch, :func:`repro.metrics.resilience.resilience_of`:
  same exact-regime Gray-code enumeration (vectorized over all masks at
  once), same heavy-edge matching, canonical BFS growth, boundary FM
  and flow refinement, making literally the same ``rng`` draws.  A
  single graph is a one-ball batch.  The twin matches by handshake
  rounds; the kernel matches greedily in descending edge-key order,
  which under a strict total edge order yields the same matching
  (Preis 1999; see :func:`_coarsen_csr`).

Nothing is derived twice.  The draws depend only on ball sizes, so
they are replayed for the whole batch up front; one fused BFS sweep
per trial index then grows every ball's unit-weight start side, and
one segmented ``bincount`` scores them all
(:func:`_fused_grown_cuts`).  Only the coarsening chain, FM and flow
refinement run per ball.  Each level carries its arc sources
(:class:`_Level`), computed once as it enters the chain and read by
every cut, FM and flow pass over it.  Bulk array work (gain
initialization, cut sizes, coarse CSR assembly, membership) is
vectorized.  The loops whose frontier is a node or two wide —
augmenting paths, coarsest-level BFS growth, the matching pass — run
over plain lists, where numpy dispatch would cost more than the work.
The FM move loop stays a scalar heap loop because its pop sequence
*is* the algorithm — heap entries are totally ordered ``(-gain, node,
version)`` tuples, so the sequence is a pure function of the entry
multiset and both implementations walk the same moves; it logs its
moves and keeps the best prefix instead of snapshotting every
improvement.

In :func:`resilience_csr_batch`, disconnected balls delegate to the
dict twin, which evaluates the largest component — engine balls are
always connected, so the delegation only fires for exotic direct
callers.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.kernels import (
    UNREACHED,
    BallBatch,
    FusedBatch,
    fused_bfs_levels,
)
from repro.graph.partition import (
    _COARSEST,
    _EXACT_MAX,
    _FLOW_REGION_MAX,
    _FM_STALL,
    _side_weight_bound,
    balance_bound,
)

#: Arc list type for :func:`max_flow_min_cut`: directed ``(u, v, cap)``.
Arc = Tuple[int, int, int]

# A weighted graph level as plain Python lists, for the scalar loops.
_Lists = Tuple[List[int], List[int], List[int], List[int]]


# ----------------------------------------------------------------------
# Max flow / min cut
# ----------------------------------------------------------------------

def max_flow_min_cut(
    num_nodes: int, arcs: Sequence[Arc], source: int, sink: int
) -> Tuple[int, List[bool]]:
    """Max s–t flow and the canonical min-cut source side.

    ``arcs`` are directed ``(u, v, capacity)`` entries (the reverse
    residual arc is created automatically with capacity 0 — the same
    convention as :meth:`repro.graph.flow.Dinic.add_edge`).  Returns
    ``(flow_value, reachable)`` where ``reachable[v]`` marks the nodes
    residual-reachable from ``source`` after the flow — the source side
    of the inclusion-minimal min cut, which is unique and therefore
    independent of the augmenting order and of the solver used.

    Edmonds–Karp over Python lists: capacities are Python ints, so the
    result is exact at any capacity.  A negative capacity raises
    :class:`ValueError`.
    """
    head: List[int] = []
    cap: List[int] = []
    adj: List[List[int]] = [[] for _ in range(num_nodes)]
    for u, v, c in arcs:
        if c < 0:
            raise ValueError(f"arc ({u}, {v}) has negative capacity {c}")
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    def residual_bfs(stop_at_sink: bool) -> List[int]:
        # pred: -1 unreached, -2 the source, else the discovering arc.
        # Stopping once the sink is labelled leaves its pred chain as a
        # full sweep would: BFS labels each node once, on discovery.
        pred = [-1] * num_nodes
        pred[source] = -2
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for a in adj[u]:
                v = head[a]
                if cap[a] > 0 and pred[v] == -1:
                    pred[v] = a
                    if stop_at_sink and v == sink:
                        return pred
                    frontier.append(v)
        return pred

    flow = 0
    while True:
        pred = residual_bfs(stop_at_sink=True)
        if pred[sink] == -1:
            break
        path: List[int] = []
        bottleneck: Optional[int] = None
        v = sink
        while v != source:
            a = pred[v]
            path.append(a)
            if bottleneck is None or cap[a] < bottleneck:
                bottleneck = cap[a]
            v = head[a ^ 1]  # the paired reverse arc points at the tail
        assert bottleneck is not None and bottleneck > 0
        for a in path:
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
        flow += bottleneck
    pred = residual_bfs(stop_at_sink=False)
    return flow, [p != -1 for p in pred]


# ----------------------------------------------------------------------
# Balanced bipartition (twin: repro.graph.partition)
# ----------------------------------------------------------------------

class _Level(NamedTuple):
    """A weighted graph level as flat int64 arrays; arcs appear in both
    directions.  ``src`` is each arc's source node (node ``u`` repeated
    ``degree(u)`` times), derived once when the level is built and read
    by every cut, FM and flow pass over it."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_weights: np.ndarray
    src: np.ndarray


def _level(indptr, indices, weights, node_weights) -> _Level:
    """A level from its CSR arrays, with the arc sources derived."""
    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return _Level(indptr, indices, weights, node_weights, src)


def _cut_csr(level: _Level, side: np.ndarray) -> int:
    """Weighted cut size (twin: ``repro.graph.partition._cut_size``).

    Every undirected edge appears as two equal-weight arcs, so the
    crossing arcs weigh twice the cut.
    """
    crossing = side[level.src] != side[level.indices]
    return int(level.weights[crossing].sum()) // 2


def _exact_bipartition_csr(level: _Level, balance_slack: float) -> int:
    """Vectorized Gray-mask enumeration (twin: ``_exact_bipartition``).

    Enumerates every side mask with node 0 anchored on side 0, scoring
    all masks at once edge by edge, and returns the cut of the minimum
    ``(cut, mask)`` key among feasible splits — the twin's canonical
    winner.
    """
    indptr, indices, weights, _node_weights, src = level
    n = len(indptr) - 1
    bound = balance_bound(n, balance_slack)
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    smask = masks << 1  # bit i of smask == node i's side
    once = src < indices
    # One mask-wide pass per edge: an (edges x masks) broadcast would
    # hold tens of MB of temporaries at the 14-node limit.
    cuts = np.zeros(masks.size, dtype=np.int64)
    for u, v, w in zip(src[once].tolist(), indices[once].tolist(), weights[once]):
        cuts += w * (((smask >> u) ^ (smask >> v)) & 1)
    size_b = np.zeros(masks.size, dtype=np.int64)
    for k in range(n - 1):
        size_b += (masks >> k) & 1
    feasible = np.maximum(size_b, n - size_b) <= bound
    keys = (cuts << (n - 1)) | masks
    keys = keys[feasible]
    best_mask = int(masks[feasible][np.argmin(keys)])
    side = ((best_mask << 1) >> np.arange(n, dtype=np.int64)) & 1
    return _cut_csr(level, side)


def _coarsen_csr(level: _Level, max_merge_weight: int) -> Tuple[_Level, np.ndarray]:
    """Heavy-edge coarsening in greedy order (twin: ``_coarsen``).

    One pass over the under-cap edges by descending edge key ``(w,
    -min(u, v), -max(u, v))`` — packed into one int64, exactly
    lexicographic since the components are bounded by ``n`` — matching
    each edge whose endpoints are both free.  Keys are unique per
    undirected edge, and under a strict total edge order the twin's
    handshake (locally dominant) matching *is* this greedy matching
    (Preis 1999): an edge left out by the handshake has a heavier
    matched neighbour edge, or its first endpoint to be matched would
    have proposed it instead.  The coarse ids are the ascending ranks
    of each group's representative ``min(u, match[u])`` — the twin's
    first-seen ascending numbering.
    """
    indptr, indices, weights, node_weights, src = level
    n = len(indptr) - 1
    dst = indices
    span = np.int64(n + 1)
    once = (src < dst) & (node_weights[src] + node_weights[dst] <= max_merge_weight)
    lo = src[once]
    hi = dst[once]
    edge_key = (weights[once] * span + (span - 1 - lo)) * span + (span - 1 - hi)
    by_key = np.argsort(edge_key)[::-1]

    partner = [-1] * n
    for u, v in zip(lo[by_key].tolist(), hi[by_key].tolist()):
        if partner[u] == -1 and partner[v] == -1:
            partner[u] = v
            partner[v] = u
    match = np.asarray(partner, dtype=np.int64)
    unmatched = np.flatnonzero(match == -1)
    match[unmatched] = unmatched

    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    _uniq, mapping = np.unique(rep, return_inverse=True)
    mapping = mapping.astype(np.int64)
    nc = len(_uniq)
    coarse_node_w = np.bincount(
        mapping, weights=node_weights, minlength=nc
    ).astype(np.int64)

    csrc = mapping[src]
    cdst = mapping[dst]
    keep = csrc != cdst
    pair = csrc[keep] * nc + cdst[keep]
    uniq_pair, inverse = np.unique(pair, return_inverse=True)
    coarse_w = np.bincount(
        inverse, weights=weights[keep], minlength=len(uniq_pair)
    ).astype(np.int64)
    # ``uniq_pair`` ascends, so its sources are the coarse arc sources.
    coarse_src = uniq_pair // nc
    coarse_indices = uniq_pair % nc
    coarse_indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(coarse_src, minlength=nc), out=coarse_indptr[1:])
    coarse = _Level(coarse_indptr, coarse_indices, coarse_w, coarse_node_w, coarse_src)
    return coarse, mapping


def _grow_from_csr(lists: _Lists, start: int) -> np.ndarray:
    """Canonical BFS-grow (twin: ``_grow_from``).

    Visit order is BFS levels each sorted ascending, then unreached
    nodes ascending; side 0 admits nodes in that order while it holds
    less than half the total weight.  Unit-weight fine levels take the
    batched twin, :func:`_fused_grown_cuts`; this one serves the
    weighted coarsest level.
    """
    indptr_l, dst_l, _w_l, node_w = lists
    n = len(node_w)
    rank = [n] * n  # BFS distance; n for unreached nodes
    rank[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        depth = rank[u] + 1
        for v in dst_l[indptr_l[u]:indptr_l[u + 1]]:
            if rank[v] == n:
                rank[v] = depth
                queue.append(v)
    order = np.lexsort(
        (np.arange(n, dtype=np.int64), np.asarray(rank, dtype=np.int64))
    )

    target = sum(node_w) // 2
    max_w = max(node_w)
    if max_w == 1:
        side = np.ones(n, dtype=np.int64)
        side[order[:target]] = 0  # unit weights: every candidate is admitted
        return side
    grown = 0
    side_list = [1] * n
    for v in order.tolist():
        if grown >= target:
            break
        if grown + node_w[v] <= target + max_w:
            side_list[v] = 0
            grown += node_w[v]
    return np.asarray(side_list, dtype=np.int64)


def _fused_grown_cuts(
    fused: FusedBatch, dist: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ball's unit-weight BFS-grown side and its cut, batched.

    ``dist`` is a :func:`fused_bfs_levels` sweep from one start per
    ball.  With unit weights :func:`_grow_from_csr` admits every
    candidate, so ball ``b``'s side 0 is its first ``n_b // 2`` nodes
    in (BFS level, index) order, unreached nodes last: one stable sort
    of the whole union by (ball, level) yields every ball's order at
    once, and one segmented ``bincount`` over the crossing arcs scores
    every cut.  Returns the fused side vector and one cut per ball;
    balls the sweep skipped read back garbage, which callers ignore.
    """
    n = int(fused.node_offsets[-1])
    ball = fused.ball_of_node
    rank = np.where(dist == UNREACHED, n, dist).astype(np.int64)
    order = np.argsort(ball * (n + 1) + rank, kind="stable")
    # Sorted by ball first, position k of ``order`` holds ball ball[k]'s
    # node of rank k - node_offsets[ball[k]] in the growth order.
    local = np.arange(n, dtype=np.int64) - fused.node_offsets[ball]
    half = np.diff(fused.node_offsets) // 2
    side = np.ones(n, dtype=np.int64)
    side[order[local < half[ball]]] = 0
    src = fused.arc_sources()
    crossing = side[src] != side[fused.indices]
    cuts = np.bincount(ball[src[crossing]], minlength=len(fused)) // 2
    return side, cuts


def _flat_lists(level: _Level) -> _Lists:
    """A level's arrays as plain Python lists for the scalar loops."""
    return (
        level.indptr.tolist(),
        level.indices.tolist(),
        level.weights.tolist(),
        level.node_weights.tolist(),
    )


def _fm_refine_csr(
    level: _Level,
    lists: _Lists,
    side: np.ndarray,
    balance_slack: float,
    max_passes: int = 8,
) -> np.ndarray:
    """Boundary FM refinement (twin: ``_fm_refine``).

    Per-pass gain/boundary/cut initialization is vectorized; the move
    loop is the twin's heap loop verbatim (its pop order is a pure
    function of the entry multiset, so both walk identical moves).  A
    moved node is locked for the rest of the pass, so instead of the
    twin's snapshot per improvement the pass logs its moves and keeps
    the best prefix by flipping those nodes back from the pass start.
    """
    indptr, indices, weights, node_weights, src = level
    n = len(indptr) - 1
    indptr_l, dst_l, w_l, node_w = lists
    max_side_w = _side_weight_bound(node_w, balance_slack)
    total_w = sum(node_w)
    deg_w = np.bincount(src, weights=weights, minlength=n).astype(np.int64)

    side = np.array(side, dtype=np.int64)  # a copy: flipped in place
    for _ in range(max_passes):
        crossing = side[src] != side[indices]
        cut_w = np.bincount(
            src[crossing], weights=weights[crossing], minlength=n
        ).astype(np.int64)
        gain = (2 * cut_w - deg_w).tolist()
        pass_start_cut = int(cut_w.sum()) // 2
        w1 = int(node_weights @ side)
        side_w = [total_w - w1, w1]

        side_l = side.tolist()
        version = [0] * n
        heap: List[Tuple[int, int, int]] = [
            (-gain[u], u, 0) for u in np.flatnonzero(cut_w).tolist()
        ]
        heapq.heapify(heap)
        locked = [False] * n

        moves: List[int] = []
        cur_cut = best_cut = pass_start_cut
        best_moves = 0
        since_best = 0

        while heap and since_best < _FM_STALL:
            _neg_g, u, ver = heapq.heappop(heap)
            if locked[u] or ver != version[u]:
                continue
            target = 1 - side_l[u]
            if side_w[target] + node_w[u] > max_side_w:
                continue  # move would break balance; skip (stays locked out)
            locked[u] = True
            moves.append(u)
            cur_cut -= gain[u]
            side_w[side_l[u]] -= node_w[u]
            side_w[target] += node_w[u]
            side_l[u] = target
            for k in range(indptr_l[u], indptr_l[u + 1]):
                v = dst_l[k]
                if locked[v]:
                    continue
                w = w_l[k]
                gain[v] += -2 * w if side_l[v] == side_l[u] else 2 * w
                version[v] += 1
                heapq.heappush(heap, (-gain[v], v, version[v]))
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_moves = len(moves)
                since_best = 0
            else:
                since_best += 1

        side[moves[:best_moves]] ^= 1
        if best_cut >= pass_start_cut:
            break  # pass found no improvement; a further pass won't either
    return side


def _flow_refine_csr(
    level: _Level, side: np.ndarray, balance_slack: float
) -> np.ndarray:
    """Exact max-flow boundary re-assignment (twin: ``_flow_refine``).

    The contracted s–t network is identical to the twin's Dinic network
    up to arc ordering; the residual-reachable source side is the
    unique inclusion-minimal min cut, so both solvers re-assign the
    boundary identically.
    """
    indptr, indices, weights, node_weights, src = level
    n = len(indptr) - 1
    crossing = side[src] != side[indices]
    region = np.unique(src[crossing])
    if not region.size or region.size > _FLOW_REGION_MAX:
        return side
    in_region = np.zeros(n, dtype=bool)
    in_region[region] = True
    outside = ~in_region
    if bool(np.all(side[outside] == 0)):
        return side  # no contracted sink
    if bool(np.all(side[outside] == 1)):
        return side  # no contracted source

    arcs: List[Arc] = []
    inner = in_region[src] & in_region[indices] & (indices > src)
    local_u = np.searchsorted(region, src[inner]) + 2
    local_v = np.searchsorted(region, indices[inner]) + 2
    for lu, lv, w in zip(local_u.tolist(), local_v.tolist(), weights[inner].tolist()):
        arcs.append((lu, lv, w))
        arcs.append((lv, lu, w))
    outward = in_region[src] & ~in_region[indices]
    to_side = side[indices[outward]]
    out_src = src[outward]
    out_w = weights[outward]
    to_source = np.bincount(
        out_src[to_side == 0], weights=out_w[to_side == 0], minlength=n
    ).astype(np.int64)
    to_sink = np.bincount(
        out_src[to_side == 1], weights=out_w[to_side == 1], minlength=n
    ).astype(np.int64)
    for i, u in enumerate(region.tolist()):
        if to_source[u]:
            arcs.append((0, i + 2, int(to_source[u])))
        if to_sink[u]:
            arcs.append((i + 2, 1, int(to_sink[u])))
    _flow, reachable = max_flow_min_cut(len(region) + 2, arcs, 0, 1)

    new_side = side.copy()
    new_side[region] = np.where(np.asarray(reachable[2:], dtype=bool), 0, 1)
    if _cut_csr(level, new_side) >= _cut_csr(level, side):
        return side
    max_side_w = _side_weight_bound(node_weights.tolist(), balance_slack)
    side_w = [
        int(node_weights[new_side == 0].sum()),
        int(node_weights[new_side == 1].sum()),
    ]
    if max(side_w) > max_side_w:
        return side
    return new_side


_Chain = Tuple[List[Tuple[_Level, _Lists, np.ndarray]], _Level, _Lists]


def _build_level_chain(fine: _Level, fine_lists: _Lists) -> _Chain:
    """The coarsening chain of one V-cycle (twin: ``_multilevel``'s loop).

    Coarsening is seed-independent, so the chain (and each level's flat
    Python lists) is computed once per graph and shared across
    heuristic trials — the twin recomputes it per trial with identical
    results.
    """
    levels: List[Tuple[_Level, _Lists, np.ndarray]] = []
    current, current_lists = fine, fine_lists
    max_merge_weight = max(2, int(fine.node_weights.sum()) // 32)
    while len(current.indptr) - 1 > _COARSEST:
        coarse, mapping = _coarsen_csr(current, max_merge_weight)
        if len(coarse.indptr) - 1 >= 0.95 * (len(current.indptr) - 1):
            break  # matching is no longer making real progress
        levels.append((current, current_lists, mapping))
        current, current_lists = coarse, _flat_lists(coarse)
    return levels, current, current_lists


def _multilevel_csr(
    fine: _Level,
    chain: _Chain,
    start: int,
    balance_slack: float,
) -> int:
    """One V-cycle's cut from a precomputed chain (twin: ``_multilevel``)."""
    levels, coarsest, coarsest_lists = chain
    seed = start
    for _level, _lists, mapping in levels:
        seed = int(mapping[seed])
    side = _grow_from_csr(coarsest_lists, seed)
    side = _fm_refine_csr(coarsest, coarsest_lists, side, balance_slack)
    for level, lists, mapping in reversed(levels):
        side = side[mapping]
        side = _fm_refine_csr(level, lists, side, balance_slack)
    side = _flow_refine_csr(fine, side, balance_slack)
    return _cut_csr(fine, side)


def _ball_level(fused: FusedBatch, b: int) -> _Level:
    """Ball ``b`` of a fused batch as a unit-weight level, sliced from
    the fused arrays (arc sources included)."""
    lo = int(fused.node_offsets[b])
    hi = int(fused.node_offsets[b + 1])
    e_lo = int(fused.indptr[lo])
    e_hi = int(fused.indptr[hi])
    return _Level(
        fused.indptr[lo : hi + 1] - e_lo,
        fused.indices[e_lo:e_hi] - lo,
        np.ones(e_hi - e_lo, dtype=np.int64),
        np.ones(hi - lo, dtype=np.int64),
        fused.arc_sources()[e_lo:e_hi] - lo,
    )


def _fused_bisection_cuts(
    fused: FusedBatch,
    rng: random.Random,
    trials: int,
    balance_slack: float,
    twin: Optional[Callable[[int], Optional[float]]] = None,
) -> List[float]:
    """Every ball's balanced-bisection cut, bitwise equal to a per-ball
    :func:`repro.graph.partition.bisection_cut_size` loop on one rng.

    The twin draws one start node per trial and nothing else, so every
    ball's draws are replayed up front in schedule order.  Balls under
    two nodes draw nothing and cut 0; exact-regime balls draw nothing
    and are solved in that pass.  ``twin(b)``, when given, runs in ball
    ``b``'s schedule position and returns the ball's value, or ``None``
    to bisect it here — draws it makes land where a per-ball loop would
    make them.  Then one fused BFS sweep per trial index grows every
    ball's unit-weight side from its start (:func:`_fused_grown_cuts`),
    so only the coarsening chain, FM and flow refinement run per ball.
    Every candidate's cut is its side's cut, so a ball's value is the
    minimum over its grown and V-cycle cuts.
    """
    trials = max(1, trials)
    num_balls = len(fused)
    offsets = fused.node_offsets.tolist()
    cuts: List[float] = [0] * num_balls
    starts = np.full((trials, num_balls), -1, dtype=np.int64)
    heuristic: List[int] = []
    for b in range(num_balls):
        if twin is not None:
            value = twin(b)
            if value is not None:
                cuts[b] = value
                continue
        lo = offsets[b]
        n_b = offsets[b + 1] - lo
        if n_b < 2:
            continue
        if n_b <= _EXACT_MAX:
            cuts[b] = _exact_bipartition_csr(_ball_level(fused, b), balance_slack)
            continue
        starts[:, b] = [lo + rng.randrange(n_b) for _ in range(trials)]
        heuristic.append(b)
    if not heuristic:
        return cuts

    grown = np.full(num_balls, np.iinfo(np.int64).max, dtype=np.int64)
    for t in range(trials):
        _side, cuts_t = _fused_grown_cuts(fused, fused_bfs_levels(fused, starts[t]))
        np.minimum(grown, cuts_t, out=grown)
    for b in heuristic:
        fine = _ball_level(fused, b)
        chain = _build_level_chain(fine, _flat_lists(fine))
        best = int(grown[b])
        for start in (starts[:, b] - offsets[b]).tolist():
            best = min(best, _multilevel_csr(fine, chain, start, balance_slack))
        cuts[b] = best
    return cuts


def bisection_cut_csr(
    sub: CSRGraph,
    rng: Optional[random.Random] = None,
    trials: int = 4,
    balance_slack: float = 0.05,
) -> int:
    """Balanced-bipartition cut size of a CSR graph, bitwise equal to
    :func:`repro.graph.partition.bisection_cut_size` on the thawed
    graph (same draws from ``rng``, same canonical tie-breaks).  The
    one-ball case of :func:`resilience_csr_batch`'s solver; a
    disconnected graph is bisected as a whole, as the twin does.
    """
    rng = rng if rng is not None else random.Random(0)
    n = sub.number_of_nodes()
    fused = FusedBatch(BallBatch(sub, [np.arange(n, dtype=np.int64)]))
    (cut,) = _fused_bisection_cuts(fused, rng, trials, balance_slack)
    return int(cut)


def resilience_csr_batch(
    fused: FusedBatch,
    rng: Optional[random.Random] = None,
    trials: int = 3,
) -> List[float]:
    """Every ball's resilience: fused sweeps, then V-cycles per ball.

    Bitwise equal to ``[resilience_of(fused.sub_csr(b).thaw(), rng)
    ...]`` on the same rng.  One fused connectivity probe finds the
    disconnected balls, which delegate to the dict twin in their
    schedule position.  The rest go through
    :func:`_fused_bisection_cuts`: draws replayed up front, one fused
    BFS sweep per trial index for every ball's grown start side, and
    only the coarsening chain, FM and flow refinement per ball.
    """
    rng = rng if rng is not None else random.Random(0)
    from repro.metrics.resilience import resilience_of  # deferred: layering

    num_balls = len(fused)
    if num_balls == 0:
        return []
    probe_sources = np.where(
        np.diff(fused.node_offsets) > 0, fused.node_offsets[:-1], -1
    )
    probe = fused_bfs_levels(fused, probe_sources)
    split = np.bincount(
        fused.ball_of_node[probe == UNREACHED], minlength=num_balls
    ) > 0

    def twin(b: int) -> Optional[float]:
        if not split[b]:
            return None
        return resilience_of(fused.sub_csr(b).thaw(), rng=rng, trials=trials)

    cuts = _fused_bisection_cuts(fused, rng, trials, 0.05, twin)
    return [float(c) for c in cuts]
