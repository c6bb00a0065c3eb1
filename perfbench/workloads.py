"""The benchmark's workloads: the paper's own experiments as rows.

A row is one operation: generate a topology, freeze it, run it through
its layer stack and classify the result.  Signature rows go through one
:class:`repro.engine.MetricEngine` pass (expansion, resilience and
distortion) and :func:`repro.analysis.signature`; link rows go through
:func:`repro.hierarchy.link_values`, the normalised rank distribution,
:func:`repro.hierarchy.classify_hierarchy` and the Figure 5
correlation.  Every row carries the verdict the paper gives for it.

Registry rows use the instances pinned in ``repro.harness.registry``.
The seed drives the engine's per-center RNG streams and the graphs
built here (the paper-size AS, the Figure 13 rewirings, the
million-node PLRG).  Ball centers are a pinned sample
(``CENTER_SEED``): with seed-drawn centers, ``sig-highdiam`` wall time
ranged 27% over five seeds, twice the range of one seed run three
times, because where a center falls sets how many balls it grows (one
at the end of the chain grows twice as many as one in the middle);
that is a change of work, not of speed.  Link values draw nothing at
random.

``toy=True`` swaps every graph for a few-hundred-node stand-in and
every request set for one center; it exists for the benchmark's own
tests and keeps the row structure of each workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis import ClassifierThresholds, signature
from repro.engine import MetricEngine, MetricRequest
from repro.generators import (
    GraphBuilder,
    barabasi_albert,
    brite,
    linear_chain,
    plrg,
    rewire_with_method,
)
from repro.graph.csr import CSRGraph
from repro.harness import topology
from repro.hierarchy import (
    HierarchyThresholds,
    classify_hierarchy,
    link_value_degree_correlation,
    link_values,
    normalized_rank_distribution,
)
from repro.internet import ASGraphParams, synthetic_as_graph
from repro.metrics.balls import sample_centers
from repro.metrics.expansion import radius_to_reach

# Request sets: (expansion centers, ball centers, ball cap).
FIGURE2 = (32, 6, 900)  # benchmarks/conftest.py
FIGURE13 = (24, 5, 700)  # benchmarks/test_fig13_reconnection.py
TOY = (1, 1, 120)

# Figure 13 builds its B-A and Brite bases at a fixed size and seed; the
# workload seed drives the rewiring.
FIG13_NODES = 1600
FIG13_BASE_SEED = 3
PAPER_AS_NODES = 10941
CENTER_SEED = 1  # the figure suite's seed
SCALE_NODES = 1_000_000
SCALE_CENTERS = 12
SCALE_WORKERS = 2


@dataclasses.dataclass
class Row:
    """One operation of a workload.

    ``make(seed)`` generates ``(graph, rels)``.  ``expected`` is the
    paper's verdict: a signature such as ``"HHL"``, a hierarchy class,
    or ``"!HHL"`` for "anything but HHL" (Figure 13's deterministic
    rewiring must break the base signature).
    """

    name: str
    kind: str  # "sig" | "links"
    make: Callable[[int], Tuple[object, object]]
    expected: str
    requests: Tuple[int, int, int] = FIGURE2
    workers: int = 0


@dataclasses.dataclass
class RowResult:
    name: str
    ok: bool
    wall_s: float
    verdict: Optional[str] = None
    expected: Optional[str] = None
    margin: Optional[float] = None
    series: object = None
    error: Optional[str] = None
    graph: object = None  # kept for pool rows, to rerun them serially

    @property
    def wrong(self) -> bool:
        return self.ok and not verdict_matches(self.expected, self.verdict)


def verdict_matches(expected: str, actual: Optional[str]) -> bool:
    if expected.startswith("!"):
        return actual != expected[1:]
    return actual == expected


# ----------------------------------------------------------------------
# Graph makers.  Each returns (graph, rels); rels is None unless the
# row routes by policy.
# ----------------------------------------------------------------------
def registry_row(name: str, scale: str = "default", policy: bool = False):
    def make(_seed):
        entry = topology(name, scale=scale)
        return entry.graph, (entry.relationships if policy else None)

    return make


def rewired_row(base: str, method: str, nodes: int = FIG13_NODES):
    build = barabasi_albert if base == "B-A" else brite

    def make(seed):
        graph = build(nodes, 2, seed=FIG13_BASE_SEED)
        return rewire_with_method(graph, method, seed=seed), None

    return make


def paper_as_row(nodes: int = PAPER_AS_NODES):
    def make(seed):
        return synthetic_as_graph(ASGraphParams(n=nodes), seed=seed).graph, None

    return make


def linear_row(nodes: int):
    def make(_seed):
        return linear_chain(nodes), None

    return make


def plrg_stream_row(nodes: int):
    def make(seed):
        return plrg(nodes, 2.246, seed=seed, sink=GraphBuilder()), None

    return make


def workload_rows(workload: str, toy: bool = False) -> List[Row]:
    """The rows of one workload, in execution order."""
    scale = "small" if toy else "default"
    req = TOY if toy else FIGURE2
    fig13 = TOY if toy else FIGURE13
    fig13_nodes = 300 if toy else FIG13_NODES
    if workload == "sig-lowdiam":
        rows = [
            Row(name, "sig", registry_row(name, scale), "HHL", req)
            for name in ("AS", "RL", "PLRG")
        ]
        rows += [
            Row("Waxman", "sig", registry_row("Waxman", scale), "HHH", req),
            Row("Random", "sig", registry_row("Random", scale), "HHH", req),
            # Complete exists at the default scale only; it is 64 nodes.
            Row("Complete", "sig", registry_row("Complete"), "HHL", req),
        ]
        rows += [
            Row(f"{name}(Policy)", "sig", registry_row(name, scale, True), "HHL", req)
            for name in ("AS", "RL")
        ]
        rows += [
            Row(name, "sig", registry_row(name, scale), "HHL", req)
            for name in ("B-A", "Brite", "BT", "Inet")
        ]
        for base in ("B-A", "Brite"):
            for label, method in (("Modified", "plrg"), ("Uniform", "uniform")):
                rows.append(
                    Row(
                        f"{label} {base}",
                        "sig",
                        rewired_row(base, method, fig13_nodes),
                        "HHL",
                        fig13,
                    )
                )
        rows.append(
            Row(
                f"AS-{PAPER_AS_NODES}",
                "sig",
                paper_as_row(400 if toy else PAPER_AS_NODES),
                "HHL",
                req,
            )
        )
        # Section 5.1: policy routing keeps AS in the moderate class.
        rows.append(
            Row(
                "AS(Policy) links",
                "links",
                registry_row("AS", "small", policy=True),
                "moderate",
            )
        )
        return rows
    if workload == "sig-highdiam":
        # Section 5.1's strict class: link values of the same shapes.  They
        # run first, on a fresh heap: after the signature rows their peak
        # RSS depended on what those rows left behind (108 vs 125 MB).
        strict = ("Tree",) if toy else ("Tree", "TS", "Tiers")
        rows = [
            Row(f"{name} links", "links", registry_row(name, "small"), "strict")
            for name in strict
        ]
        rows += [
            Row("Mesh", "sig", registry_row("Mesh", scale), "LHH", req),
            Row("Tree", "sig", registry_row("Tree", scale), "HLL", req),
            Row("TS", "sig", registry_row("TS", scale), "HLL", req),
            Row("Tiers", "sig", registry_row("Tiers", scale), "LHL", req),
            Row(
                "Linear",
                "sig",
                linear_row(120 if toy else 600),
                "LLL",
                (req[0], req[1], min(req[2], 200)),
            ),
            Row(
                "Deterministic Brite",
                "sig",
                rewired_row("Brite", "deterministic", fig13_nodes),
                "!HHL",
                fig13,
            ),
        ]
        return rows
    if workload == "scale":
        nodes = 400 if toy else SCALE_NODES
        centers = 1 if toy else SCALE_CENTERS
        return [
            Row(
                f"PLRG-{nodes}",
                "sig",
                plrg_stream_row(nodes),
                "HHL",
                (max(centers, 16), centers, TOY[2] if toy else 900),
                workers=SCALE_WORKERS,
            )
        ]
    raise KeyError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Running rows
# ----------------------------------------------------------------------
def signature_requests_for(row: Row, seed: int, graph, rels) -> List[MetricRequest]:
    """The row's engine requests: centers from the pinned sample, RNG
    streams from the workload seed."""
    expansion_centers, ball_centers, cap = row.requests
    ball = dict(
        centers=sample_centers(graph, ball_centers, seed=CENTER_SEED),
        max_ball_size=cap,
        rels=rels,
        seed=seed,
    )
    return [
        MetricRequest(
            "expansion",
            centers=sample_centers(graph, expansion_centers, seed=CENTER_SEED),
            rels=rels,
            seed=seed,
        ),
        MetricRequest("resilience", **ball),
        MetricRequest("distortion", **ball),
    ]


class DegradedRun(RuntimeError):
    """The engine returned a partial series (a center was dropped)."""


def run_sig(row: Row, seed: int):
    graph, rels = row.make(seed)
    csr = graph if isinstance(graph, CSRGraph) else graph.freeze()
    engine = MetricEngine(workers=row.workers, use_cache=False)
    series = engine.compute(csr, signature_requests_for(row, seed, csr, rels))
    if not engine.last_run.ok:
        raise DegradedRun(f"degraded metrics {engine.last_run.degraded_metrics}")
    n = csr.number_of_nodes()
    verdict = signature(
        series["expansion"], series["resilience"], series["distortion"], n
    )
    return verdict, (n, series), csr


def run_links(row: Row, seed: int):
    graph, rels = row.make(seed)
    values = link_values(graph, rels=rels, seed=seed)
    n = graph.number_of_nodes()
    dist = normalized_rank_distribution(values, n)
    verdict = classify_hierarchy(dist)
    correlation = link_value_degree_correlation(graph, values)
    return verdict, (n, dist, correlation), graph


RUNNERS = {"sig": run_sig, "links": run_links}


def run_row(row: Row, seed: int, span=None) -> RowResult:
    """Time one row; any exception is recorded as a failed operation.

    ``span`` (a tracer's span context factory) wraps the timed region
    in a root span when the run is traced.
    """
    start = time.perf_counter()
    try:
        with span("op", row.name) if span else contextlib.nullcontext():
            verdict, payload, graph = RUNNERS[row.kind](row, seed)
    except Exception as exc:  # one failed row must not end the pass
        wall = time.perf_counter() - start
        return RowResult(
            row.name, False, wall, expected=row.expected,
            error=f"{type(exc).__name__}: {exc}",
        )
    wall = time.perf_counter() - start
    return RowResult(
        row.name,
        True,
        wall,
        verdict=verdict,
        expected=row.expected,
        margin=row_margin(row.kind, payload),
        series=payload,
        graph=graph if row.workers > 0 else None,
    )


# ----------------------------------------------------------------------
# Output checks: well-formed series, digests and classifier margins
# ----------------------------------------------------------------------
def check_payload(kind: str, payload) -> List[str]:
    """Problems with one row's outputs (empty when they are valid)."""
    problems = []
    if kind == "sig":
        n, series = payload
        expansion = series["expansion"]
        if not expansion:
            problems.append("empty expansion series")
        last = -1.0
        for h, e in expansion:
            if not (0.0 <= e <= 1.0 + 1e-12) or e < last:
                problems.append(f"expansion E({h})={e!r} not a growing fraction")
                break
            last = e
        for name in ("resilience", "distortion"):
            for size, value in series[name]:
                if not (1 <= size <= n) or not math.isfinite(value) or value < 0:
                    problems.append(f"{name} point ({size}, {value!r}) invalid")
                    break
        for size, value in series["distortion"]:
            if value < 1.0 - 1e-9:
                problems.append(f"distortion {value!r} below 1 at n={size}")
                break
    else:
        n, dist, correlation = payload
        if not dist:
            problems.append("empty link-value distribution")
        values = [v for _r, v in dist]
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append("rank distribution not descending")
        if any(v < 0 or not math.isfinite(v) for v in values):
            problems.append("negative or non-finite link value")
        if not (-1.0 - 1e-9 <= correlation <= 1.0 + 1e-9) and not math.isnan(
            correlation
        ):
            problems.append(f"correlation {correlation!r} outside [-1, 1]")
    return problems


def _series_text(kind: str, payload) -> str:
    if kind == "sig":
        _n, series = payload
        return "|".join(
            f"{name}:" + ";".join(f"{x!r},{y!r}" for x, y in series[name])
            for name in sorted(series)
        )
    _n, dist, correlation = payload
    return ";".join(f"{r!r},{v!r}" for r, v in dist) + f"|corr:{correlation!r}"


def series_digest(rows: Sequence[Row], results: Sequence[RowResult]) -> str:
    """sha256 over every computed series and distribution (repr floats)."""
    digest = hashlib.sha256()
    for row, result in zip(rows, results):
        digest.update(row.name.encode())
        text = _series_text(row.kind, result.series) if result.ok else "failed"
        digest.update(text.encode())
    return digest.hexdigest()


def row_margin(kind: str, payload) -> float:
    """Smallest relative distance of this row's verdicts from a boundary.

    Mirrors the decision rule of each classifier in
    :mod:`repro.analysis.classify` and
    :mod:`repro.hierarchy.classification`: 0 means a verdict sits on
    its threshold.
    """
    if kind == "sig":
        t = ClassifierThresholds()
        n, series = payload
        margins = []
        if series["expansion"] and n >= 4:
            budget = t.expansion_ratio * math.log2(n)
            margins.append(
                abs(radius_to_reach(series["expansion"], 0.5) - budget) / budget
            )
        res = series["resilience"]
        eligible = [v for s, v in res if s >= t.resilience_min_n] or [
            v for _s, v in res
        ]
        if eligible:
            margins.append(
                abs(max(eligible) - t.resilience_ceiling) / t.resilience_ceiling
            )
        dis = series["distortion"]
        eligible = [v for s, v in dis if s >= t.distortion_min_n] or [
            v for _s, v in dis[-3:]
        ]
        if eligible:
            average = sum(eligible) / len(eligible)
            margins.append(
                abs(average - t.distortion_threshold) / t.distortion_threshold
            )
        return min(margins) if margins else 0.0
    t = HierarchyThresholds()
    _n, dist, _corr = payload
    values = [v for _r, v in dist]
    top = values[0]
    margin = abs(top - t.strict_top_value) / t.strict_top_value
    if top < t.strict_top_value and top > 0:
        body = sum(1 for v in values if v >= t.flat_ratio * top) / len(values)
        margin = min(margin, abs(body - t.flat_fraction) / t.flat_fraction)
    return margin
