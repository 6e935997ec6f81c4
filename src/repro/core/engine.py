"""The analysis-engine knob shared by every fast/reference split.

Every layer with a hot path — the report layer (:mod:`repro.core.report`),
collection (:mod:`repro.atlas.platform`), associations and delegation —
offers two bit-identical implementations: ``"py"``, the pure-Python
reference that serves as the oracle, and ``"fused"``, the fast path
(the single-pass engine of :mod:`repro.core.fused` for the report
artifacts, the columnar NumPy kernels elsewhere).  This module owns the
single knob selecting between them, so layers below the report can
resolve the engine without importing it (the report layer imports the
sanitization pipeline, which imports the platform — a cycle if the knob
lived in ``report``).
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

#: Errors on which a fast path silently falls back to the reference
#: (unpackable value types, out-of-range integers); genuine input
#: errors re-raise identically from the reference path.
FALLBACK_ERRORS = (TypeError, ValueError, OverflowError)


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


__all__ = ["ENGINE_ENV", "ENGINES", "FALLBACK_ERRORS", "resolve_engine"]
