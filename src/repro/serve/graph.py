"""Typed node/edge knowledge-graph export of a scenario's findings.

The graph links the entities the paper reasons about — autonomous
systems, observed prefixes, v6 address pools, customer delegations and
stability classes — so downstream tooling can navigate "which pool
does this /64 come from?" or "which ASes renumber periodically?"
without re-running analysis.  Shape follows the node/edge JSONL style
of public internet knowledge graphs: one JSON object per line, nodes
first, then edges referencing node ids.

Node kinds: ``as``, ``prefix``, ``pool``, ``delegation``,
``stability-class``.  Edge kinds: ``ORIGINATES`` (AS → observed
prefix), ``CONTAINS`` (pool → /64 prefix), ``ASSIGNED_FROM`` (/64
prefix → delegation), ``CLASSIFIED_AS`` (AS → stability class, one per
address family).  The exact wire format is documented in
``docs/data-formats.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.changes import v6_runs_to_prefix_runs
from repro.ip.prefix import address_prefix
from repro.obs import get_logger, span
from repro.serve.queries import (
    change_rate_per_probe_year,
    classify_stability,
)

_log = get_logger("serve.graph")

NODE_KINDS = ("as", "prefix", "pool", "delegation", "stability-class")
EDGE_KINDS = ("ORIGINATES", "CONTAINS", "ASSIGNED_FROM", "CLASSIFIED_AS")


@dataclass
class KnowledgeGraph:
    """An in-memory node/edge graph ready for JSONL export."""

    nodes: List[Dict[str, Any]] = field(default_factory=list)
    edges: List[Dict[str, Any]] = field(default_factory=list)

    def node_counts(self) -> Dict[str, int]:
        """Node tally by kind."""
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node["kind"]] = counts.get(node["kind"], 0) + 1
        return counts

    def edge_counts(self) -> Dict[str, int]:
        """Edge tally by kind."""
        counts: Dict[str, int] = {}
        for edge in self.edges:
            counts[edge["kind"]] = counts.get(edge["kind"], 0) + 1
        return counts


class _Builder:
    def __init__(self) -> None:
        self.graph = KnowledgeGraph()
        self._node_ids: set = set()
        self._edge_keys: set = set()

    def node(self, node_id: str, kind: str, **props: Any) -> str:
        if node_id not in self._node_ids:
            self._node_ids.add(node_id)
            self.graph.nodes.append(
                {"type": "node", "id": node_id, "kind": kind, "props": props}
            )
        return node_id

    def edge(self, kind: str, src: str, dst: str, **props: Any) -> None:
        key = (kind, src, dst, tuple(sorted(props.items())))
        if key in self._edge_keys:
            return
        self._edge_keys.add(key)
        self.graph.edges.append(
            {"type": "edge", "kind": kind, "src": src, "dst": dst, "props": props}
        )


def _family_stability(
    probes: List[Any], family: int, period: Optional[float]
) -> Tuple[str, float, int]:
    """(class, rate, changes) of one AS's probes for one family."""
    from repro.core.report import probe_v4_changes, probe_v6_changes

    changes = 0
    observed_hours = 0
    for probe in probes:
        if family == 4:
            changes += len(probe_v4_changes(probe))
            runs = probe.v4_runs
        else:
            changes += len(probe_v6_changes(probe, 64))
            runs = v6_runs_to_prefix_runs(probe.v6_runs, 64)
        observed_hours += sum(run.last - run.first + 1 for run in runs)
    rate = change_rate_per_probe_year(changes, observed_hours)
    label = classify_stability(changes, len(probes), rate, period)
    return label, rate, changes


def build_graph(scenario: Any) -> KnowledgeGraph:
    """The knowledge graph of one built scenario.

    Deterministic: ISPs in scenario order, prefixes in first-seen
    probe-major order within each AS, every node emitted before any
    edge references it.
    """
    from repro.workloads import periodicity_for_scenario

    builder = _Builder()
    # The default (fused) engine reuses the scenario's memoized pack.
    v4_periods, v6_periods = periodicity_for_scenario(scenario)
    with span("serve/graph", networks=len(scenario.isps)):
        for name, isp in scenario.isps.items():
            probes = scenario.probes_in(isp.asn)
            as_id = builder.node(
                f"as:{isp.asn}",
                "as",
                asn=isp.asn,
                name=name,
                country=isp.config.country,
                probes=len(probes),
            )
            v4_prefixes: Dict[Any, None] = {}
            v6_prefixes: Dict[Any, None] = {}
            for probe in probes:
                for run in probe.v4_runs:
                    v4_prefixes.setdefault(address_prefix(run.value, 24), None)
                for run in v6_runs_to_prefix_runs(probe.v6_runs, 64):
                    v6_prefixes.setdefault(run.value, None)
            for prefix in v4_prefixes:
                prefix_id = builder.node(f"prefix:{prefix}", "prefix", family=4)
                builder.edge("ORIGINATES", as_id, prefix_id, family=4)
            v6_config = isp.config.v6
            for prefix in v6_prefixes:
                prefix_id = builder.node(f"prefix:{prefix}", "prefix", family=6)
                builder.edge("ORIGINATES", as_id, prefix_id, family=6)
                if v6_config is None:
                    continue
                pool = prefix.supernet(v6_config.pool_plen)
                pool_id = builder.node(
                    f"pool:{pool}", "pool", plen=pool.plen, asn=isp.asn
                )
                builder.edge("CONTAINS", pool_id, prefix_id)
                delegation = prefix.supernet(v6_config.delegation_plen)
                delegation_id = builder.node(
                    f"delegation:{delegation}",
                    "delegation",
                    plen=delegation.plen,
                )
                builder.edge("ASSIGNED_FROM", prefix_id, delegation_id)
            for family, period in (
                (4, v4_periods.get(name)),
                (6, v6_periods.get(name)),
            ):
                label, rate, changes = _family_stability(probes, family, period)
                class_id = builder.node(
                    f"class:{label}", "stability-class", label=label
                )
                props: Dict[str, Any] = {
                    "family": family,
                    "changes": changes,
                    "rate_per_probe_year": rate,
                }
                if period is not None:
                    props["period_hours"] = period
                builder.edge("CLASSIFIED_AS", as_id, class_id, **props)
    return builder.graph


def write_graph(graph: KnowledgeGraph, path: Path) -> Path:
    """Write ``graph`` as JSONL (all nodes, then all edges)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in graph.nodes:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for record in graph.edges:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    _log.info(
        "graph written",
        extra={"path": str(path), "nodes": len(graph.nodes), "edges": len(graph.edges)},
    )
    return path


def load_graph(path: Path) -> KnowledgeGraph:
    """Read a JSONL graph back (inverse of :func:`write_graph`)."""
    graph = KnowledgeGraph()
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            record_type = record.get("type")
            if record_type == "node":
                graph.nodes.append(record)
            elif record_type == "edge":
                graph.edges.append(record)
            else:
                raise ValueError(f"unknown graph record type {record_type!r}")
    return graph


__all__ = [
    "EDGE_KINDS",
    "KnowledgeGraph",
    "NODE_KINDS",
    "build_graph",
    "load_graph",
    "write_graph",
]
