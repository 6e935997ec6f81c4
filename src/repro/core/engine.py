"""The analysis-engine knob shared by every fast/reference split.

Every layer with a hot path — the report layer (:mod:`repro.core.report`),
collection (:mod:`repro.atlas.platform`), associations and delegation —
offers two bit-identical implementations: ``"py"``, the pure-Python
reference that serves as the oracle, and ``"fused"``, the fast path
(the single-pass engine of :mod:`repro.core.fused` for the report
artifacts, the columnar NumPy kernels elsewhere).  Each engine runs
exactly one path: an error on the fast path propagates rather than being
retried on the reference.  Only two inputs are routed by a check on the
input itself — association triples whose /64 key has host bits set, and
delegation prefixes other than /64 — and both go to the reference.

This module owns the single knob selecting between the engines, so
layers below the report can resolve the engine without importing it
(the report layer imports the sanitization pipeline, which imports the
platform — a cycle if the knob lived in ``report``).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment override for the default analysis engine
#: ("fused" or "py").
ENGINE_ENV = "REPRO_ANALYSIS_ENGINE"

#: Engines accepted by :func:`resolve_engine`: the fast path, then the
#: pure-Python reference.
ENGINES = ("fused", "py")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Effective analysis engine: explicit value, else the environment,
    else ``"fused"``."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip().lower() or None
    if engine is None:
        return "fused"
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


__all__ = ["ENGINE_ENV", "ENGINES", "resolve_engine"]
