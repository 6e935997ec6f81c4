"""The paper's analysis library.

Everything here is dataset-agnostic: it consumes echo runs
(:class:`~repro.atlas.echo.EchoRun`), sanitized probes, or CDN
association tuples, regardless of whether they came from the bundled
simulators or from real measurement archives in the same schema.

Modules map one-to-one onto the paper's analyses:

=====================  =====================================================
Module                 Paper section
=====================  =====================================================
``changes``            3.1 — change detection, sandwiched exact durations
``timefraction``       3.2.1 — total time fraction metric (Eq. 1)
``periodicity``        3.2 — periodic renumbering detection
``dualstack``          3.2 — DS/NDS split, v4/v6 change co-occurrence
``associations``       4 — CDN association durations and cardinality
``spatial``            5.1/5.2 — CPL, BGP crossings, unique-prefix counts
``pools``              5.2 — address-pool boundary inference
``delegation``         5.3 — delegated-prefix inference (Atlas + CDN)
``evolution``          3.2 — year-over-year duration drift
``blocklist``          6 — blocklist TTL/granularity evaluation
``hitlist``            6 — rescan planning after renumbering
``targetgen``          2.3/6 — target-generation baselines + informed
``anonymize``          6 — truncation anonymization audit
``associations_np``    columnar kernels behind ``associations`` (used by the
                       triple store and the association stream)
``analysis_np``        columnar kernels behind ``changes``/``timefraction``/
                       ``periodicity``/``spatial`` (used by ``fused``)
``report``             rendering of the paper's tables
=====================  =====================================================
"""

from repro.core.changes import (
    AssignmentObservation,
    ChangeEvent,
    Duration,
    changes_from_runs,
    observations_from_runs,
    sandwiched_durations,
    v6_runs_to_prefix_runs,
)
from repro.core.timefraction import (
    CANONICAL_GRID,
    cumulative_total_time_fraction,
    naive_duration_cdf,
    total_time_fraction,
)

__all__ = [
    "AssignmentObservation",
    "CANONICAL_GRID",
    "ChangeEvent",
    "Duration",
    "changes_from_runs",
    "cumulative_total_time_fraction",
    "naive_duration_cdf",
    "observations_from_runs",
    "sandwiched_durations",
    "total_time_fraction",
    "v6_runs_to_prefix_runs",
]
