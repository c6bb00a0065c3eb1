"""Synthetic AS-level Internet (the substitute for the paper's measured
BGP graph — see DESIGN.md, "Substitutions").

The paper measured the AS graph from the route-views BGP table (10,941
nodes, average degree 4.13, May 2001).  We cannot ship that data, so we
*simulate the measurement target*: an AS topology produced by an
economics-flavoured growth process that is deliberately different from
every generator under test:

* a fully-meshed clique of tier-1 providers seeds the network;
* ASes arrive one at a time and buy transit from 1–3 providers
  ("multihoming"), choosing providers preferentially by *customer count*
  (market share), damped by a tier-depth penalty — this yields the
  heavy-tailed degree distribution observed by Faloutsos et al. without
  copying any tested generator's wiring rule;
* after growth, ASes of similar size establish *peering* links
  (degree-ratio gated), modelling settlement-free peering.

Every link carries its ground-truth relationship (provider–customer or
peer–peer), so the valley-free policy model of Section 3.2.1 runs on
exact annotations, and Gao-style inference can be validated against the
construction truth (:mod:`repro.internet.relationships`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro.generators.base import Seed, make_rng
from repro.graph.core import Graph
from repro.routing.policy import Relationships


@dataclasses.dataclass(frozen=True)
class ASGraphParams:
    """Knobs of the synthetic AS growth model."""

    n: int = 2200
    tier1_count: int = 8
    multihome_probs: Tuple[float, ...] = (0.50, 0.34, 0.12, 0.04)
    peering_fraction: float = 0.12
    peer_degree_ratio: float = 2.5
    preference_damping: float = 0.6
    # Probability that an additional transit provider is drawn from the
    # first provider's neighbourhood (triadic closure): multihomed ASes
    # buy from providers in the same regional market, which produces the
    # high clustering coefficients measured AS graphs are known for.
    closure_prob: float = 0.65
    # Fraction of peer links placed between ASes that already share a
    # neighbour (peering at a common exchange), same purpose.
    peer_closure_fraction: float = 0.7


@dataclasses.dataclass
class ASGraph:
    """A synthetic AS topology plus its ground-truth annotations."""

    graph: Graph
    relationships: Relationships
    tier: Dict[int, int]  # node -> tier depth (0 = tier-1)

    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()


def synthetic_as_graph(
    params: ASGraphParams = ASGraphParams(), seed: Seed = None
) -> ASGraph:
    """Grow a synthetic AS-level Internet.

    Returns the topology, its relationship annotation, and each AS's tier
    depth (path length to the tier-1 clique through providers).
    """
    if params.n <= params.tier1_count:
        raise ValueError("n must exceed the tier-1 clique size")
    if abs(sum(params.multihome_probs) - 1.0) > 1e-9:
        raise ValueError("multihome_probs must sum to 1")
    rng = make_rng(seed)
    graph = Graph(name=f"AS(n={params.n})")
    rels = Relationships()
    tier: Dict[int, int] = {}

    # --- Tier-1 clique, fully meshed with peer links ----------------------
    t1 = list(range(params.tier1_count))
    for u in t1:
        graph.add_node(u)
        tier[u] = 0
    for i, u in enumerate(t1):
        for v in t1[i + 1:]:
            graph.add_edge(u, v)
            rels.set_peer(u, v)

    # Provider-choice weights, indexed by node (nodes are numbered in
    # arrival order): market share (customer count) damped by tier depth,
    # since deep regional providers are less attractive than big transit
    # ASes.  An entry is rewritten only when its AS arrives or gains a
    # customer, so each arrival costs one vectorised prefix-sum pass.
    damping = [params.preference_damping ** t for t in range(params.n)]
    customer_count = [0] * params.n
    weights = np.zeros(params.n)

    def reweight(node: int) -> None:
        weights[node] = (1.0 + customer_count[node]) * damping[tier[node]]

    for u in t1:
        reweight(u)

    # --- Growth: each new AS multihomes to preferential providers ---------
    for new in range(params.tier1_count, params.n):
        r = rng.random()
        cumulative = 0.0
        provider_count = 1
        for k, p in enumerate(params.multihome_probs, start=1):
            cumulative += p
            if r < cumulative:
                provider_count = k
                break
        provider_count = min(provider_count, new)

        # Sequential cumulative sum: the same floats, in the same order,
        # as a running Python sum over the weights.
        prefix = np.cumsum(weights[:new])
        total_weight = float(prefix[-1])
        providers = set()
        guard = 0
        while len(providers) < provider_count and guard < 10000:
            guard += 1
            if providers and rng.random() < params.closure_prob:
                # Triadic closure: pick the extra provider from the first
                # provider's neighbourhood (same regional market).
                anchor = next(iter(providers))
                neighbors = [
                    v
                    for v in graph.neighbors(anchor)
                    if v != new and v not in providers
                ]
                if neighbors:
                    providers.add(neighbors[rng.randrange(len(neighbors))])
                    continue
            pick = rng.random() * total_weight
            providers.add(int(np.searchsorted(prefix, pick, side="left")))
        graph.add_node(new)
        tier[new] = 1 + min(tier[p] for p in providers)
        reweight(new)
        for p in providers:
            graph.add_edge(new, p)
            rels.set_provider_customer(provider=p, customer=new)
            customer_count[p] += 1
            reweight(p)

    # --- Peering pass: similar-sized ASes peer ---------------------------
    target_peer_links = int(params.peering_fraction * graph.number_of_edges())
    added = 0
    guard = 0
    while added < target_peer_links and guard < 100 * max(1, target_peer_links):
        guard += 1
        u = rng.randrange(params.n)
        if rng.random() < params.peer_closure_fraction and graph.degree(u) > 0:
            # Peer with an AS met at a shared neighbour (common exchange).
            u_neighbors = list(graph.neighbors(u))
            via = u_neighbors[rng.randrange(len(u_neighbors))]
            via_neighbors = list(graph.neighbors(via))
            v = via_neighbors[rng.randrange(len(via_neighbors))]
        else:
            v = rng.randrange(params.n)
        if u == v or graph.has_edge(u, v):
            continue
        du, dv = graph.degree(u), graph.degree(v)
        if du < 2 or dv < 2:
            continue  # stub ASes don't peer
        ratio = max(du, dv) / min(du, dv)
        if ratio > params.peer_degree_ratio:
            continue
        if abs(tier[u] - tier[v]) > 1:
            continue
        graph.add_edge(u, v)
        rels.set_peer(u, v)
        added += 1

    return ASGraph(graph=graph, relationships=rels, tier=tier)
