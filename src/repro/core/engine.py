"""The analysis-engine knob shared by every columnar/pure-Python split.

Both the report layer (:mod:`repro.core.report`) and the collection
layer (:mod:`repro.atlas.platform`) offer two bit-identical
implementations of their hot paths: a pure-Python reference and a
columnar NumPy fast path.  This module owns the single knob selecting
between them, so layers below the report can resolve the engine without
importing it (the report layer imports the sanitization pipeline, which
imports the platform — a cycle if the knob lived in ``report``).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment override for the default analysis engine
#: ("np", "py" or "fused").
ENGINE_ENV = "REPRO_ANALYSIS_ENGINE"

#: Engines accepted by :func:`resolve_engine`.  "fused" is the
#: single-pass engine of :mod:`repro.core.fused`.
ENGINES = ("np", "py", "fused")

#: Errors on which a NumPy fast path silently falls back to the
#: reference (unpackable value types, out-of-range integers); genuine
#: input errors re-raise identically from the reference path.
FALLBACK_ERRORS = (TypeError, ValueError, OverflowError)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Effective analysis engine: explicit value, else the environment,
    else ``"np"``."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip().lower() or None
    if engine is None:
        return "np"
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


__all__ = ["ENGINE_ENV", "ENGINES", "FALLBACK_ERRORS", "resolve_engine"]
