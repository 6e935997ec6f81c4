"""RSS probes and the repository root.

:func:`current_rss_bytes` and :class:`RssSampler` measure resident
memory; :func:`repo_root` locates the checkout that trace and profile
artifacts are written under.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Optional


def repo_root() -> Path:
    """The repository checkout root, or the CWD outside a checkout.

    ``src/repro/perf/timing.py`` is three levels below the repo root in
    a checkout, but when the package is installed (site-packages) that
    ancestor is a Python prefix that artifacts must never be written
    into — so the ancestor only counts when it actually looks like this
    repository (has a ``pyproject.toml``); otherwise artifacts land in
    the current working directory.
    """
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "pyproject.toml").is_file():
        return candidate
    return Path.cwd()


def current_rss_bytes() -> Optional[int]:
    """This process's resident set size in bytes (``None`` if unknown).

    Reads ``VmRSS`` from ``/proc/self/status`` where available (Linux),
    falling back to ``resource.getrusage`` — whose ``ru_maxrss`` is the
    lifetime *peak* in kilobytes on Linux, so the fallback overstates
    the instantaneous value but still bounds it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError):
        return None
    # Linux reports kilobytes; macOS reports bytes.
    return peak * 1024 if os.uname().sysname == "Linux" else peak


class RssSampler:
    """Background thread tracking peak resident memory over a region.

    Use as a context manager around the stage being measured; the
    ``peak_bytes`` property holds the largest RSS sample observed
    (``None`` when RSS could not be read on this platform).  Sampling
    happens on a daemon thread so the measured code needs no hooks, at
    the cost of granularity: a short-lived spike between samples can be
    missed.  The default 20 ms interval is fine for chunk-scale work.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = float(interval)
        self.peak_bytes: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        """Take one sample immediately (also called by the thread)."""
        rss = current_rss_bytes()
        if rss is not None and (self.peak_bytes is None or rss > self.peak_bytes):
            self.peak_bytes = rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.sample()


__all__ = [
    "RssSampler",
    "current_rss_bytes",
    "repo_root",
]
