"""Chunked stream sources for the incremental analysis engine.

The streaming layer consumes *run events* — complete echo runs ordered
by their first observed hour — in bounded-size chunks; that is its one
input shape.  Each chunk covers a half-open hour window
``[k*chunk_hours, (k+1)*chunk_hours)`` and carries every run whose
``first`` falls inside it.  Because run firsts are strictly increasing
within one (probe, family) track, the global ``(first, probe, family)``
order preserves every per-track run sequence, which is all the
incremental state machines need.

A chunk carries its runs as six parallel columns in ``(first, probe,
family)`` order (see :class:`RunChunk`), so the engine folds a window
without touching a python object per run.

Sources:

* :class:`ScenarioRunSource` — windows the sanitized runs of an
  in-memory :class:`~repro.workloads.AtlasScenario` (sorted columns,
  sliced per window with one ``searchsorted``).
* :class:`JsonlRunSource` — lazily re-scans a stream file written by
  :func:`write_run_stream` (a JSON manifest line followed by standard
  ``write_echo_runs`` lines keyed by probe *index*), so arbitrarily
  long feeds are consumed in bounded memory.

Association triples do not stream from here: every association stream
folds the day windows of a :class:`repro.store.TripleStore`, and
:func:`stream_triples_from_csv` only feeds a CSV into a store build.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from repro.core.analysis_np import concat_run_columns
from repro.core.associations import Triple
from repro.io.records import (
    RecordFormatError,
    parse_echo_run_line,
    read_association_csv,
    write_echo_runs,
)

STREAM_FORMAT = "repro-stream"
STREAM_FORMAT_VERSION = 1

#: One run event: ``(first, probe_ref, family, value_int, last)``.
#: ``probe_ref`` indexes the manifest's probe list; ``value_int`` is the
#: full integer address (128-bit for IPv6).
RunEvent = Tuple[int, int, int, int, int]


# -- manifest -----------------------------------------------------------------


@dataclass(frozen=True)
class NetworkInfo:
    """One featured network (Table 1 identity columns)."""

    name: str
    asn: int
    country: str


@dataclass(frozen=True)
class ProbeInfo:
    """One sanitized probe's stream identity.

    ``probe_id`` is the sanitizer's (string) probe id; the stream itself
    refers to probes by their *index* in the manifest list, which keeps
    the run-line format identical to ``write_echo_runs``.
    """

    probe_id: str
    asn: int
    dual_stack: bool


@dataclass(frozen=True)
class StreamManifest:
    """Header of a run stream: who is measured, and for how long."""

    end_hour: int
    networks: Tuple[NetworkInfo, ...]
    probes: Tuple[ProbeInfo, ...]

    def to_json(self) -> str:
        """The manifest's canonical single-line JSON form."""
        return json.dumps(
            {
                "format": STREAM_FORMAT,
                "version": STREAM_FORMAT_VERSION,
                "end_hour": self.end_hour,
                "networks": [[n.name, n.asn, n.country] for n in self.networks],
                "probes": [
                    [p.probe_id, p.asn, 1 if p.dual_stack else 0] for p in self.probes
                ],
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "StreamManifest":
        """Parse a manifest line (raises ``RecordFormatError`` if invalid)."""
        try:
            data = json.loads(line)
            if data.get("format") != STREAM_FORMAT:
                raise ValueError(f"not a {STREAM_FORMAT} manifest")
            if int(data.get("version", -1)) != STREAM_FORMAT_VERSION:
                raise ValueError(f"unsupported stream version {data.get('version')!r}")
            return cls(
                end_hour=int(data["end_hour"]),
                networks=tuple(
                    NetworkInfo(str(name), int(asn), str(country))
                    for name, asn, country in data["networks"]
                ),
                probes=tuple(
                    ProbeInfo(str(pid), int(asn), bool(dual))
                    for pid, asn, dual in data["probes"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordFormatError(f"bad stream manifest: {exc}") from exc

    def digest(self) -> str:
        """Stable content hash of the manifest (part of stream identity)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def manifest_from_scenario(scenario) -> StreamManifest:
    """Build the stream manifest of an :class:`~repro.workloads.AtlasScenario`."""
    return StreamManifest(
        end_hour=scenario.end_hour,
        networks=tuple(
            NetworkInfo(name, isp.asn, isp.config.country)
            for name, isp in scenario.isps.items()
        ),
        probes=tuple(
            ProbeInfo(probe.probe_id, probe.asn, probe.dual_stack)
            for probe in scenario.probes
        ),
    )


# -- chunks -------------------------------------------------------------------


_LOW64 = (1 << 64) - 1


@dataclass(eq=False)
class RunChunk:
    """One hour window's worth of runs, as parallel columns.

    Row ``i`` is the run ``(first[i], ref[i], family[i], value, last[i])``
    with ``value = value_hi[i] << 64 | value_lo[i]``; rows are sorted by
    ``(first, ref, family)``.  ``ref`` indexes the manifest's probes.
    Hours, refs and families are ``int64``, the value halves ``uint64``
    (an IPv4 address is its ``value_lo``).  Every row is a complete
    run: no run of the stream continues into a later chunk.
    """

    index: int
    start_hour: int
    end_hour: int
    first: np.ndarray
    ref: np.ndarray
    family: np.ndarray
    last: np.ndarray
    value_hi: np.ndarray
    value_lo: np.ndarray

    def __len__(self) -> int:
        return len(self.first)


def _pack_events(events: Sequence[RunEvent]) -> Dict[str, np.ndarray]:
    """The run columns of ``events``, in the given order."""
    first, ref, family, value, last = list(zip(*events)) or [()] * 5
    return {
        "first": np.array(first, dtype=np.int64),
        "ref": np.array(ref, dtype=np.int64),
        "family": np.array(family, dtype=np.int64),
        "last": np.array(last, dtype=np.int64),
        "value_hi": np.array([v >> 64 for v in value], dtype=np.uint64),
        "value_lo": np.array([v & _LOW64 for v in value], dtype=np.uint64),
    }


def _chunk_count(end_hour: int, chunk_hours: int) -> int:
    if chunk_hours < 1:
        raise ValueError("chunk_hours must be >= 1")
    return max(1, -(-end_hour // chunk_hours))


def _window_events(
    events: Iterable[RunEvent],
    chunk_hours: int,
    start_chunk: int,
    min_chunks: int,
) -> Iterator[RunChunk]:
    """Window first-hour-ordered events into consecutive packed chunks.

    Events before the resume point (``start_chunk``) are skipped; empty
    windows are emitted so the chunk index always equals
    ``first // chunk_hours`` and a resumed scan lines up with the
    original one.
    """
    index = start_chunk
    lo = start_chunk * chunk_hours
    buffer: List[RunEvent] = []
    prev_first: Optional[int] = None

    def window() -> RunChunk:
        return RunChunk(index, lo, lo + chunk_hours, **_pack_events(buffer))

    for event in events:
        first = event[0]
        if prev_first is not None and first < prev_first:
            raise RecordFormatError(
                f"run stream not sorted: first hour {first} after {prev_first}"
            )
        prev_first = first
        if first < lo:
            continue  # before the resume point
        while first >= lo + chunk_hours:
            yield window()
            buffer = []
            index += 1
            lo += chunk_hours
        buffer.append(event)
    while buffer or index < min_chunks:
        yield window()
        buffer = []
        index += 1
        lo += chunk_hours


def _slice_windows(
    runs: Dict[str, np.ndarray], chunk_hours: int, start_chunk: int, min_chunks: int
) -> Iterator[RunChunk]:
    """:func:`_window_events` over first-sorted columns: each window is a
    view cut by one ``searchsorted`` over ``first``."""
    first = runs["first"]
    total = max(min_chunks, int(first[-1]) // chunk_hours + 1) if len(first) else min_chunks
    bounds = np.searchsorted(first, np.arange(start_chunk, total + 1) * chunk_hours).tolist()
    for k, index in enumerate(range(start_chunk, total)):
        lo, hi = bounds[k], bounds[k + 1]
        yield RunChunk(
            index,
            index * chunk_hours,
            (index + 1) * chunk_hours,
            **{name: column[lo:hi] for name, column in runs.items()},
        )


class ScenarioRunSource:
    """Runs of an in-memory scenario as columns sorted once at construction.

    The runs are held as :class:`RunChunk`'s six columns in ``(first, ref,
    family)`` order; :meth:`chunks` yields views of them, one
    ``searchsorted`` cut per window.  ``events`` are ``(first, ref,
    family, value, last)`` tuples in any order.
    """

    def __init__(self, manifest: StreamManifest, events: Sequence[RunEvent]) -> None:
        self.manifest = manifest
        self._runs = _pack_events(sorted(events))

    @cached_property
    def stream_id(self) -> str:
        """Content hash of the manifest and every run's event repr (the
        checkpoint identity); computed on first use, since only
        checkpointing reads it."""
        runs = self._runs
        values = (
            (hi << 64) | lo
            for hi, lo in zip(runs["value_hi"].tolist(), runs["value_lo"].tolist())
        )
        events = zip(
            runs["first"].tolist(),
            runs["ref"].tolist(),
            runs["family"].tolist(),
            values,
            runs["last"].tolist(),
        )
        digest = hashlib.sha256(self.manifest.to_json().encode("utf-8"))
        digest.update("".join(map(repr, events)).encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_scenario(cls, scenario) -> "ScenarioRunSource":
        """The runs of ``scenario``'s sanitized probes, read from their
        run columns (no run objects or tuples are built)."""
        packs = [
            concat_run_columns([probe.v4 for probe in scenario.probes]),
            concat_run_columns([probe.v6 for probe in scenario.probes]),
        ]
        runs = {
            "first": np.concatenate([cols.first for cols in packs]),
            "ref": np.concatenate([cols.probe_of_run() for cols in packs]),
            "family": np.repeat(
                np.array([4, 6], dtype=np.int64), [cols.n_runs for cols in packs]
            ),
            "last": np.concatenate([cols.last for cols in packs]),
            "value_hi": np.concatenate([cols.value_hi for cols in packs]),
            "value_lo": np.concatenate([cols.value_lo for cols in packs]),
        }
        # (first, ref, family) is unique per run, so this is the full
        # event sort order.
        order = np.lexsort((runs["family"], runs["ref"], runs["first"]))
        source = cls.__new__(cls)
        source.manifest = manifest_from_scenario(scenario)
        source._runs = {name: column[order] for name, column in runs.items()}
        return source

    def __len__(self) -> int:
        return len(self._runs["first"])

    def chunks(self, chunk_hours: int, start_chunk: int = 0) -> Iterator[RunChunk]:
        """Window the runs into chunks, resuming at ``start_chunk``."""
        min_chunks = _chunk_count(self.manifest.end_hour, chunk_hours)
        return _slice_windows(self._runs, chunk_hours, start_chunk, min_chunks)


class JsonlRunSource:
    """Run events lazily re-read from a :func:`write_run_stream` file.

    Every :meth:`chunks` call re-scans the file from the top (skipping
    already-consumed windows on resume), so memory stays bounded by the
    largest single chunk regardless of stream length.  A truncated final
    line — the signature of a killed writer — is tolerated; after a scan
    :attr:`truncated_lines` holds the number the file has (0 or 1).
    Malformed lines *followed by* well-formed ones still raise.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        with self.path.open() as stream:
            header = stream.readline()
        self.manifest = StreamManifest.from_json(header)
        size = self.path.stat().st_size
        self.stream_id = hashlib.sha256(
            f"jsonl\n{header.strip()}\n{size}".encode("utf-8")
        ).hexdigest()
        self.truncated_lines = 0

    def _events(self) -> Iterator[RunEvent]:
        with self.path.open() as stream:
            stream.readline()  # manifest
            pending_error: Optional[RecordFormatError] = None
            for lineno, line in enumerate(stream, start=2):
                line = line.strip()
                if not line:
                    continue
                if pending_error is not None:
                    raise pending_error
                try:
                    run = parse_echo_run_line(line, lineno)
                except RecordFormatError as exc:
                    pending_error = exc  # tolerated only as the final line
                    continue
                yield (run.first, run.probe_id, run.family, int(run.value), run.last)
            self.truncated_lines = 0 if pending_error is None else 1

    def chunks(self, chunk_hours: int, start_chunk: int = 0) -> Iterator[RunChunk]:
        """Re-scan the file and window it, resuming at ``start_chunk``."""
        min_chunks = _chunk_count(self.manifest.end_hour, chunk_hours)
        return _window_events(self._events(), chunk_hours, start_chunk, min_chunks)


def write_run_stream(scenario, stream: TextIO) -> int:
    """Serialize a scenario as a run stream: manifest line + sorted runs.

    Run lines reuse the ``write_echo_runs`` JSONL schema with ``prb_id``
    set to the probe's *index* in the manifest (sanitized probe ids are
    strings and virtual probes can share raw ids, so the index is the
    only stable integer key).  Returns the number of run lines written.
    """
    manifest = manifest_from_scenario(scenario)
    stream.write(manifest.to_json() + "\n")
    keyed = []
    for ref, probe in enumerate(scenario.probes):
        for run in probe.v4_runs:
            keyed.append((run.first, ref, run.family, run))
        for run in probe.v6_runs:
            keyed.append((run.first, ref, run.family, run))
    keyed.sort(key=lambda item: item[:3])
    return write_echo_runs(
        (replace(run, probe_id=ref) for _first, ref, _family, run in keyed), stream
    )


# -- association triples -------------------------------------------------------


def stream_triples_from_csv(path) -> Iterator[Triple]:
    """Lazily stream triples from a ``write_association_csv`` file."""
    with Path(path).open() as stream:
        yield from read_association_csv(stream)


__all__ = [
    "JsonlRunSource",
    "NetworkInfo",
    "ProbeInfo",
    "RunChunk",
    "RunEvent",
    "ScenarioRunSource",
    "StreamManifest",
    "manifest_from_scenario",
    "stream_triples_from_csv",
    "write_run_stream",
]
