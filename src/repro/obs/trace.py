"""Hierarchical tracing spans: wall time, nesting, attributes.

A :class:`Tracer` keeps a stack of open spans (per thread) and a list of
finished root spans.  ``tracer.span("analysis/table1", network="DTAG")``
is a context manager: entering pushes a child of the innermost open
span, exiting records its wall-clock duration.  Exceptions propagate
untouched but mark the span with ``error=<type>``.

Finished trees are exportable three ways:

* :meth:`Tracer.as_dicts` — nested JSON-ready dicts (the
  ``--telemetry`` dump's ``spans`` section);
* :meth:`Tracer.export_jsonl` — one JSON object per span, depth-first,
  with ``path``/``depth`` columns (the ``benchmarks/results/trace_*``
  artifact format, see ``docs/data-formats.md``);
* :meth:`Tracer.render_tree` — an indented plain-text tree for
  terminals.

Timing uses ``time.perf_counter`` only; spans never touch the RNG, so
tracing any pipeline stage cannot perturb a seeded simulation.

Cross-process stitching: every span carries a ``span_id`` (assigned by
its tracer when pushed, ``"<pid hex>-<counter hex>"``), finished trees
round-trip through :meth:`Span.as_dict` / :meth:`Span.from_dict`, and
:meth:`Tracer.adopt` grafts serialized trees — e.g. a worker process's
span buffer shipped back with its results — under the span currently
open on this thread.  :meth:`Tracer.detach` is the worker-side reset: a
forked pool worker inherits the parent's finished roots and open stack,
and must drop both so it only ever ships spans *it* recorded.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence


class Span:
    """One timed, attributed node of a trace tree."""

    __slots__ = ("name", "attrs", "children", "start", "end", "span_id", "_t0")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.start: Optional[float] = None  # seconds since tracer epoch
        self.end: Optional[float] = None
        self.span_id: Optional[str] = None
        self._t0: float = 0.0

    @property
    def duration(self) -> float:
        """Wall-clock seconds this span was open (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        """Nested JSON-ready form of this span and its children."""
        node = {
            "name": self.name,
            "start": round(self.start, 6) if self.start is not None else None,
            "duration": round(self.duration, 6),
        }
        if self.span_id is not None:
            node["span_id"] = self.span_id
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children:
            node["children"] = [child.as_dict() for child in self.children]
        return node

    @classmethod
    def from_dict(cls, node: dict) -> "Span":
        """Rebuild a finished span tree from its :meth:`as_dict` form.

        The inverse used by :meth:`Tracer.adopt` to stitch worker span
        buffers into the parent tree; timings are taken verbatim (a
        forked worker shares the parent's ``perf_counter`` epoch, so
        its offsets land on the same timeline).
        """
        span = cls(str(node.get("name", "")), node.get("attrs"))
        span.span_id = node.get("span_id")
        start = node.get("start")
        duration = node.get("duration") or 0.0
        if start is not None:
            span.start = float(start)
            span.end = float(start) + float(duration)
        span.children = [cls.from_dict(child) for child in node.get("children", ())]
        return span


class _ActiveSpan:
    """Context manager binding one :class:`Span` to a tracer's stack."""

    __slots__ = ("_tracer", "_span", "_keep_root")

    def __init__(self, tracer: "Tracer", span: Span, keep_root: bool = True) -> None:
        self._tracer = tracer
        self._span = span
        self._keep_root = keep_root

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span, self._keep_root)
        return False


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id.

    Drawn from ``os.urandom`` — never the seeded ``random`` module — so
    minting ids cannot perturb a simulation's RNG draw order.
    """
    return os.urandom(8).hex()


class Tracer:
    """Collects span trees; one instance per telemetry state."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: List[Span] = []
        self.trace_id = new_trace_id()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """A context manager opening ``name`` under the current span."""
        return _ActiveSpan(self, Span(name, attrs))

    def transient_span(self, name: str, **attrs) -> _ActiveSpan:
        """Like :meth:`span`, but a finished root is not kept in :attr:`roots`.

        For per-request trees in a long-lived process: the caller keeps
        the span it entered (the serve app hands it to its bounded
        flight recorder), so the tracer does not grow by one tree per
        request.  Opened under another span, it is that span's child
        as usual.
        """
        return _ActiveSpan(self, Span(name, attrs), keep_root=False)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if span.span_id is None:
            span.span_id = f"{os.getpid():x}-{next(self._ids):x}"
        span._t0 = time.perf_counter()
        span.start = span._t0 - self.epoch
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span, keep_root: bool = True) -> None:
        span.end = time.perf_counter() - self.epoch
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if not stack and keep_root:
            # A span opened with nothing on the stack is a root; child
            # spans already live in their parent's ``children``.
            self.roots.append(span)

    def reset(self) -> None:
        """Drop finished trees and restart the epoch (open spans survive)."""
        self.roots.clear()
        self.epoch = time.perf_counter()
        self.trace_id = new_trace_id()

    def detach(self) -> None:
        """Worker-side reset: drop inherited roots *and* this thread's stack.

        A forked pool worker starts with a copy of the parent tracer —
        finished roots it must not re-ship, and possibly an open span
        stack it is not actually inside.  After ``detach`` every span
        the worker records becomes a fresh root, which is exactly what
        :meth:`pop_roots` ships back for stitching.  The epoch is kept:
        under ``fork`` the parent's ``perf_counter`` origin is valid in
        the child, so stitched offsets share one timeline.
        """
        self.roots.clear()
        self._local.stack = []

    def pop_roots(self, baseline: int = 0) -> List[dict]:
        """Serialize and remove finished roots beyond index ``baseline``.

        The worker-side half of span stitching: a pool task snapshots
        ``len(tracer.roots)`` before running, then pops everything the
        task added — the buffer that travels back with the result.
        """
        spans = [span.as_dict() for span in self.roots[baseline:]]
        del self.roots[baseline:]
        return spans

    def adopt(self, nodes: Sequence[dict], parent: Optional[Span] = None) -> List[Span]:
        """Graft serialized span trees into this tracer's live tree.

        Each node (a :meth:`Span.as_dict` dict) becomes a child of
        ``parent``, else of the span currently open on this thread,
        else a new root.  Returns the adopted spans.
        """
        if parent is None:
            parent = self.current()
        adopted = [Span.from_dict(node) for node in nodes]
        if parent is not None:
            parent.children.extend(adopted)
        else:
            self.roots.extend(adopted)
        return adopted

    # -- exports --------------------------------------------------------------

    def as_dicts(self) -> List[dict]:
        """Finished root spans as nested JSON-ready dicts."""
        return [root.as_dict() for root in self.roots]

    def walk(self) -> Iterator[tuple]:
        """Yield ``(span, depth, path)`` depth-first over finished trees."""

        def _walk(span: Span, depth: int, prefix: str):
            path = f"{prefix}/{span.name}" if prefix else span.name
            yield span, depth, path
            for child in span.children:
                yield from _walk(child, depth + 1, path)

        for root in self.roots:
            yield from _walk(root, 0, "")

    def export_jsonl(self, path) -> Path:
        """Write one JSON line per finished span (depth-first) to ``path``."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as stream:
            for span, depth, span_path in self.walk():
                record = {
                    "name": span.name,
                    "path": span_path,
                    "depth": depth,
                    "start": round(span.start, 6) if span.start is not None else None,
                    "duration": round(span.duration, 6),
                    "trace_id": self.trace_id,
                }
                if span.span_id is not None:
                    record["span_id"] = span.span_id
                if span.attrs:
                    record["attrs"] = {
                        key: _jsonable(value) for key, value in span.attrs.items()
                    }
                stream.write(json.dumps(record, sort_keys=True) + "\n")
        return target

    def render_tree(self) -> str:
        """Indented plain-text rendering of every finished span tree."""
        lines = []
        for span, depth, _path in self.walk():
            attrs = (
                " [" + ", ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
                if span.attrs
                else ""
            )
            lines.append(f"{'  ' * depth}{span.name}  {span.duration * 1e3:.2f}ms{attrs}")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


__all__ = ["Span", "Tracer", "new_trace_id"]
