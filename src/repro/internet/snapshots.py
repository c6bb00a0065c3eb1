"""Dated topology snapshots.

The paper checked robustness across time: "we have computed our topology
metrics for at least three different snapshots of both topologies, each
snapshot separated from the next by several months" (Aug 1999 / Apr 2000
/ May 2001 for RL; Mar 1999 / Apr 2000 / Dec 2000 / May 2001 for AS).

We reproduce the *methodology*: a snapshot series grows the same
synthetic Internet to increasing sizes with a shared seed, so later
snapshots are plausible evolutions of earlier ones, and the benchmark
suite can verify that the metric classifications are stable across
snapshots (as the paper found).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.generators.base import Seed, make_rng
from repro.internet.asgraph import ASGraph, ASGraphParams, synthetic_as_graph
from repro.internet.routerlevel import (
    RouterExpansionParams,
    RouterGraph,
    synthetic_router_graph,
)


@dataclasses.dataclass
class Snapshot:
    """One dated AS + RL snapshot pair."""

    label: str
    as_graph: ASGraph
    router_graph: RouterGraph


DEFAULT_LABELS = ("Aug-1999", "Apr-2000", "May-2001")


def snapshot_series(
    sizes: Sequence[int] = (1100, 1600, 2200),
    labels: Sequence[str] = DEFAULT_LABELS,
    seed: Seed = None,
    router_params: Optional[RouterExpansionParams] = None,
) -> List[Snapshot]:
    """Build a growing series of AS+RL snapshots.

    Every snapshot's AS graph is grown from the same seed, and growth
    draws from the RNG independently of the final size.  So the growth
    phase of the ``k``-th snapshot is an exact prefix of the ``k+1``-th:
    the same ASes with the same tiers and the same provider–customer
    links.  Only the peering pass that follows growth differs.  This
    mirrors how the real Internet's snapshots relate.
    """
    if len(sizes) != len(labels):
        raise ValueError("sizes and labels must have equal length")
    rng = make_rng(seed)
    base_seed = rng.getrandbits(32)
    router_params = router_params or RouterExpansionParams()
    snapshots = []
    for size, label in zip(sizes, labels):
        as_graph = synthetic_as_graph(
            ASGraphParams(n=size), seed=base_seed
        )
        rl = synthetic_router_graph(as_graph, router_params, seed=base_seed + 1)
        as_graph.graph.name = f"AS({label})"
        rl.graph.name = f"RL({label})"
        snapshots.append(Snapshot(label=label, as_graph=as_graph, router_graph=rl))
    return snapshots
