"""``repro.serve`` — the queryable address-dynamics serving layer.

Turns the pipeline's precomputed artifacts into a query service:

* :mod:`repro.serve.registry` — content-addressed LRU artifact registry;
* :mod:`repro.serve.queries` — typed query/response dataclasses and the
  shared scoring helpers that make served answers bit-identical to the
  direct computation;
* :mod:`repro.serve.engine` — the indexed, batched query engine and
  its pure-Python reference :func:`~repro.serve.engine.compute_direct`;
* :mod:`repro.serve.graph` — typed node/edge knowledge-graph export;
* :mod:`repro.serve.server` — stdlib HTTP front-end + in-process client;
* :mod:`repro.serve.wire` — JSON wire helpers shared with the CLI.

Parity with :func:`repro.workloads.analyze_atlas_scenario` is enforced
by :func:`repro.perf.verify.serve_diffs`.
"""

from repro.serve.engine import (
    QueryEngine,
    ScenarioArtifact,
    build_scenario_artifact,
    compute_direct,
    observed_prefixes,
)
from repro.serve.graph import KnowledgeGraph, build_graph, load_graph, write_graph
from repro.serve.queries import (
    DualStackQuery,
    DualStackResult,
    HitlistQuery,
    HitlistResult,
    LifetimeQuery,
    LifetimeResult,
    StabilityQuery,
    StabilityResult,
    query_from_dict,
    query_to_dict,
    result_to_dict,
)
from repro.serve.registry import (
    ArtifactRegistry,
    checkpoint_artifact_key,
    scenario_artifact_key,
    store_artifact_key,
)
from repro.serve.server import ServeApp, ServeClient, make_server, status_rows
from repro.serve.wire import jsonable, report_payload, write_json

__all__ = [
    "ArtifactRegistry",
    "DualStackQuery",
    "DualStackResult",
    "HitlistQuery",
    "HitlistResult",
    "KnowledgeGraph",
    "LifetimeQuery",
    "LifetimeResult",
    "QueryEngine",
    "ScenarioArtifact",
    "ServeApp",
    "ServeClient",
    "StabilityQuery",
    "StabilityResult",
    "build_graph",
    "build_scenario_artifact",
    "checkpoint_artifact_key",
    "compute_direct",
    "jsonable",
    "load_graph",
    "make_server",
    "observed_prefixes",
    "query_from_dict",
    "query_to_dict",
    "report_payload",
    "result_to_dict",
    "scenario_artifact_key",
    "status_rows",
    "store_artifact_key",
    "write_graph",
    "write_json",
]
