"""Shared machinery of the benchmark: timing statistics, the operation
ledger, the in-memory span tracer, memory probes, and the query mix.

Nothing here imports ``repro`` at module load, so ``run.py`` can check
that it runs inside a source checkout before the program is imported.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# ---------------------------------------------------------------------------
# Timing statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


#: Percentiles tried, highest first, when reporting a tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float], beyond: int = 10):
    """``(percentile, value)``: the highest percentile of ``TAIL_PERCENTILES``
    with at least ``beyond`` samples above it (50 if none qualifies)."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= beyond:
            return pct, quantile(values, pct / 100.0)
    return 50.0, quantile(values, 0.5)


def summary(values: Sequence[float], scale: float = 1.0) -> dict:
    """Median, tail and sample count of one timing series (detail line)."""
    pct, value = tail(values)
    return {"p50": median(values) * scale, f"p{pct:g}": value * scale, "n": len(values)}


#: The speed kernel's time on the reference host when it runs at its
#: usual speed; :class:`HostSpeed` scales timings to this speed.
KERNEL_REF_S = 0.008


class HostSpeed:
    """Scales measured times to the reference host's speed.

    The benchmark runs on shared virtual machines whose CPUs alternate
    between speeds about 1.5x apart for seconds to minutes at a time, so
    one run can read 50% slower than the next on the same code.  A
    fixed kernel of Python dictionary work and a NumPy unique, which
    touches nothing in the program, is timed before and after every
    measured operation; the operation's time is multiplied by
    ``KERNEL_REF_S`` over the mean of those two kernel times.  A change
    to the program moves the scaled time exactly as it moves the raw
    one, while the host's speed swings largely cancel.
    """

    def __init__(self) -> None:
        import numpy as np

        self._keys = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 15)
        self.factors: List[float] = []
        self.last = self.probe()

    def _kernel(self) -> float:
        import numpy as np

        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for i in range(20_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        np.unique(self._keys & 0xFFFFF)
        return time.perf_counter() - start

    def probe(self) -> float:
        """The kernel's time now (best of three)."""
        return min(self._kernel() for _ in range(3))

    def mark(self) -> None:
        """Probe just before an operation starts."""
        self.last = self.probe()

    def scale(self, elapsed: float) -> float:
        """``elapsed``, which ended just now and started after the last
        probe, in reference-host seconds."""
        now = self.probe()
        factor = KERNEL_REF_S / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(factor)
        return elapsed * factor

    def summary(self) -> dict:
        """Median and range of the factors applied so far (detail line)."""
        if not self.factors:
            return {}
        return {"median": median(self.factors), "min": min(self.factors),
                "max": max(self.factors), "n": len(self.factors)}


def cold_import_s(root: Path, env: dict, statement: str, speed: HostSpeed) -> float:
    """Scaled wall time of a fresh interpreter running ``statement`` (imports)."""
    speed.mark()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", statement],
        cwd=root,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return speed.scale(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Operation ledger
# ---------------------------------------------------------------------------


class Ledger:
    """Counts operations attempted and failed.

    An operation fails when it raises, gets a non-200 reply, or returns
    an answer that differs from the reference.  ``reference_fault``
    makes a workload corrupt the reference it compares against, so the
    smoke test can prove a wrong answer is counted as a failure.
    """

    def __init__(self, reference_fault: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.reference_fault = reference_fault
        self._lock = threading.Lock()

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        with self._lock:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one failure unless ``ok``; returns ``ok``."""
        if not ok:
            self.fail(reason)
        return ok


# ---------------------------------------------------------------------------
# Span tracer (benchmark-side, in memory)
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans around the benchmark's calls into each layer.

    A span has a name, start and end (``perf_counter`` seconds), the id
    of the span open on the same thread when it started, and the run id.
    Spans stay in memory; :meth:`write` dumps them as JSON lines when
    the run ends.  While ``enabled`` is false every span is one shared
    no-op context.
    """

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._noop = nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._noop
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> List[float]:
        """Wall durations of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, dict]:
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the time its child spans
        cover; children of one span run on its thread and never overlap.
        """
        child_time: Dict[int, float] = {}
        for record in self.spans:
            parent = record["parent"]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    record["end"] - record["start"]
                )
        table: Dict[str, dict] = {}
        for record in self.spans:
            duration = record["end"] - record["start"]
            row = table.setdefault(
                record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(record["id"], 0.0)
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                stream.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Memory probes
# ---------------------------------------------------------------------------

MIB = float(1 << 20)


def _status_kib(field: str) -> Optional[int]:
    try:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    kib = _status_kib("VmHWM")
    if kib is None:
        import resource

        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / MIB


def current_rss_mb() -> float:
    kib = _status_kib("VmRSS")
    return (kib or 0) * 1024 / MIB


class RssPeak:
    """Samples this process's resident set on a thread while a call runs.

    Only wrap calls that start no worker processes: the repository's
    pools fork, and a fork must not happen while this thread is alive.
    """

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        self.start_mb = 0.0
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak_mb = max(self.peak_mb, current_rss_mb())

    def __enter__(self) -> "RssPeak":
        self.start_mb = self.peak_mb = current_rss_mb()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, current_rss_mb())

    @property
    def delta_mb(self) -> float:
        return self.peak_mb - self.start_mb


# ---------------------------------------------------------------------------
# The query mix shared by atlas-pipeline and serve-mixed
# ---------------------------------------------------------------------------

HITLIST_BUDGET = 64
FAMILIES = ("stability", "lifetime", "dualstack", "hitlist")


def query_pool(scenario, seed: int, size: int) -> list:
    """A fixed, seed-derived mix of typed queries over ``scenario``.

    2/5 stability (half on observed v4 /24s, half on observed v6 /48s),
    1/5 lifetime (featured networks), 1/5 dual-stack (v4 /24 and v6 /48)
    and 1/5 hitlist (budget 64).  Hitlists target observed v6 /64s: a
    hitlist's cost grows with its members' histories, and a /48 can hold
    a whole pool's probes, which made the mix's cost swing with the seed.
    Targets are evenly spaced over each candidate list (first-seen order,
    so probe by probe) from a ``random.Random(seed)`` offset, so every
    seed's mix covers the networks in the same proportions; the order is
    shuffled with the same generator.
    """
    from repro.serve import (
        DualStackQuery,
        HitlistQuery,
        LifetimeQuery,
        StabilityQuery,
        observed_prefixes,
    )

    rng = random.Random(seed)
    unit = max(2, size // 5)
    v4 = observed_prefixes(scenario, 4, 24)
    v6 = observed_prefixes(scenario, 6, 48)
    v6_64 = observed_prefixes(scenario, 6, 64)
    networks = sorted(scenario.isps)

    def pick(items, count):
        step = len(items) / count
        offset = rng.random() * step
        return [items[int(offset + i * step)] for i in range(count)]

    queries = [StabilityQuery(p) for p in pick(v4, unit) + pick(v6, unit)]
    queries += [LifetimeQuery(name) for name in pick(networks, unit)]
    queries += [DualStackQuery(p) for p in pick(v4, unit // 2) + pick(v6, unit - unit // 2)]
    queries += [HitlistQuery(p, budget=HITLIST_BUDGET, seed=seed) for p in pick(v6_64, unit)]
    rng.shuffle(queries)
    return queries


def family_of(query) -> str:
    return {
        "StabilityQuery": "stability",
        "LifetimeQuery": "lifetime",
        "DualStackQuery": "dualstack",
        "HitlistQuery": "hitlist",
    }[type(query).__name__]


def wire_answer(result) -> dict:
    """The JSON wire form of a result, as a client parses it off the socket."""
    from repro.serve import result_to_dict

    return json.loads(json.dumps(result_to_dict(result)))


def cpu_count() -> int:
    return max(1, os.cpu_count() or 1)
