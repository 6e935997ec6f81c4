"""Tests for record serialization (repro.io.records) and stream windowing."""

import io

import numpy as np
import pytest

from repro.atlas.echo import EchoRecord, EchoRun
from repro.io.records import (
    RecordFormatError,
    parse_association_line,
    parse_echo_run_line,
    read_association_csv,
    read_echo_records,
    read_echo_runs,
    write_association_csv,
    write_echo_records,
    write_echo_runs,
)
from repro.ip.addr import IPv4Address, IPv6Address
from repro.store import build_store_from_triples
from repro.stream import (
    JsonlRunSource,
    NetworkInfo,
    ProbeInfo,
    ScenarioRunSource,
    StreamManifest,
    run_association_stream_over_store,
)


class TestEchoRecordsIO:
    def test_roundtrip(self):
        records = [
            EchoRecord(1, 0, 4, IPv4Address.parse("31.0.0.1"), IPv4Address.parse("192.168.1.2")),
            EchoRecord(1, 0, 6, IPv6Address.parse("2a00::1"), IPv6Address.parse("2a00::1")),
        ]
        buffer = io.StringIO()
        assert write_echo_records(records, buffer) == 2
        buffer.seek(0)
        assert list(read_echo_records(buffer)) == records

    def test_blank_lines_skipped(self):
        buffer = io.StringIO('\n{"prb_id":1,"hour":0,"af":4,"x_client_ip":"1.2.3.4","src_addr":"1.2.3.4"}\n\n')
        assert len(list(read_echo_records(buffer))) == 1

    def test_malformed_raises_with_line_number(self):
        buffer = io.StringIO('{"prb_id":1}\n')
        with pytest.raises(RecordFormatError, match="line 1"):
            list(read_echo_records(buffer))


class TestEchoRunsIO:
    def test_roundtrip(self):
        runs = [
            EchoRun(7, 4, IPv4Address.parse("31.0.0.1"), 0, 23, 24, 0),
            EchoRun(7, 6, IPv6Address.parse("2a00:1:2:3::9"), 24, 99, 70, 3),
        ]
        buffer = io.StringIO()
        assert write_echo_runs(runs, buffer) == 2
        buffer.seek(0)
        assert list(read_echo_runs(buffer)) == runs

    def test_max_gap_defaults_to_zero(self):
        buffer = io.StringIO(
            '{"prb_id":1,"af":4,"value":"1.2.3.4","first":0,"last":5,"observed":6}\n'
        )
        run = next(read_echo_runs(buffer))
        assert run.max_gap == 0

    def test_malformed(self):
        with pytest.raises(RecordFormatError):
            list(read_echo_runs(io.StringIO('{"af":4}\n')))


class TestAssociationCsv:
    def test_roundtrip(self):
        triples = [(0, 0x1F000000, 0x2A000000 << 96), (149, 0x1F000100, (0x2A000001 << 96) | (5 << 64))]
        buffer = io.StringIO()
        assert write_association_csv(triples, buffer) == 2
        buffer.seek(0)
        assert list(read_association_csv(buffer)) == triples

    def test_bad_header(self):
        with pytest.raises(RecordFormatError):
            list(read_association_csv(io.StringIO("nope\n")))

    def test_bad_fields(self):
        with pytest.raises(RecordFormatError):
            list(read_association_csv(io.StringIO("day,v4_slash24,v6_slash64\n1,2\n")))
        with pytest.raises(RecordFormatError):
            list(read_association_csv(io.StringIO("day,v4_slash24,v6_slash64\nx,ff,ff\n")))

    def test_reader_is_lazy(self):
        # The CSV reader is a generator: a bad header only raises once
        # the caller starts consuming, and rows parse one at a time.
        iterator = read_association_csv(io.StringIO("nope\n"))
        with pytest.raises(RecordFormatError):
            next(iterator)
        stream = io.StringIO("day,v4_slash24,v6_slash64\n1,ff,ff00\n2,bad,row\n")
        iterator = read_association_csv(stream)
        assert next(iterator) == (1, 0xFF, 0xFF00)
        with pytest.raises(RecordFormatError, match="line 3"):
            next(iterator)

    def test_parse_helpers(self):
        assert parse_association_line("3,1f000000,2a0000000000000000000000\n") == (
            3, 0x1F000000, 0x2A0000000000000000000000
        )
        run = parse_echo_run_line(
            '{"prb_id":1,"af":4,"value":"1.2.3.4","first":0,"last":5,"observed":6}'
        )
        assert (run.first, run.last, run.observed) == (0, 5, 6)
        with pytest.raises(RecordFormatError, match="line 9"):
            parse_echo_run_line("{}", lineno=9)


def _manifest(end_hour):
    return StreamManifest(
        end_hour=end_hour,
        networks=(NetworkInfo("AS", 1, "XX"),),
        probes=(ProbeInfo("p0", 1, True),),
    )


def _rows(chunk):
    """A run chunk's six columns zipped back into (first, ref, family,
    value, last) rows."""
    values = [
        (hi << 64) | lo for hi, lo in zip(chunk.value_hi.tolist(), chunk.value_lo.tolist())
    ]
    return list(zip(
        chunk.first.tolist(), chunk.ref.tolist(), chunk.family.tolist(), values,
        chunk.last.tolist(),
    ))


_RUN_LINE = '{"prb_id":0,"af":4,"value":"1.2.3.4","first":%d,"last":%d,"observed":1}'


class TestRunChunkBoundaries:
    def test_run_spanning_a_boundary_stays_in_its_first_chunk(self):
        # A run is windowed by its *first* hour: one starting at hour 9
        # and lasting into the next window still belongs to chunk 0.
        events = [(9, 0, 4, 1, 25), (30, 0, 4, 2, 35)]
        chunks = list(ScenarioRunSource(_manifest(40), events).chunks(10))
        assert [chunk.index for chunk in chunks] == [0, 1, 2, 3]
        assert _rows(chunks[0]) == [(9, 0, 4, 1, 25)]
        assert _rows(chunks[1]) == []  # the spanning run is NOT re-emitted
        assert _rows(chunks[3]) == [(30, 0, 4, 2, 35)]

    def test_empty_windows_are_emitted(self):
        # A long observation gap yields explicitly empty chunks, so a
        # resumed scan always lines up index-for-index with the original.
        events = [(0, 0, 4, 1, 0), (45, 0, 4, 2, 45)]
        chunks = list(ScenarioRunSource(_manifest(50), events).chunks(10))
        assert [len(chunk) for chunk in chunks] == [1, 0, 0, 0, 1]
        assert [chunk.start_hour for chunk in chunks] == [0, 10, 20, 30, 40]

    def test_columns_are_typed_and_sorted(self):
        # Events in any order come out as (first, ref, family)-sorted
        # columns; a 128-bit value splits into its two uint64 halves.
        v6 = (0x2001_0DB8 << 96) | 7
        events = [(5, 1, 6, v6, 9), (5, 0, 4, 3, 6), (2, 1, 4, 4, 2)]
        (chunk,) = ScenarioRunSource(_manifest(10), events).chunks(10)
        assert _rows(chunk) == sorted(events)
        assert chunk.value_hi.tolist() == [0, 0, v6 >> 64]
        assert [chunk.first.dtype, chunk.value_lo.dtype] == [np.int64, np.uint64]

    def test_resume_skips_folded_windows(self):
        events = [(0, 0, 4, 1, 3), (12, 0, 4, 2, 14), (25, 0, 4, 3, 25)]
        source = ScenarioRunSource(_manifest(30), events)
        resumed = list(source.chunks(10, start_chunk=1))
        assert [chunk.index for chunk in resumed] == [1, 2]
        assert [_rows(chunk) for chunk in resumed] == [
            [(12, 0, 4, 2, 14)], [(25, 0, 4, 3, 25)]
        ]

    def test_unsorted_events_raise(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            "\n".join([_manifest(10).to_json(), _RUN_LINE % (5, 5), _RUN_LINE % (2, 2)])
        )
        with pytest.raises(RecordFormatError, match="not sorted"):
            list(JsonlRunSource(path).chunks(10))

    def test_truncated_final_run_line_tolerated(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        line = _RUN_LINE % (0, 5)
        path.write_text(
            _manifest(10).to_json() + "\n" + line + "\n" + line[: len(line) // 2]
        )
        source = JsonlRunSource(path)
        chunks = list(source.chunks(10))
        assert _rows(chunks[0]) == [(0, 0, 4, 0x01020304, 5)]
        assert source.truncated_lines == 1

    def test_truncated_lines_counted_per_scan(self, tmp_path):
        # Every chunks() call re-scans the file; the count is the file's
        # truncated lines, not a running total over scans.
        path = tmp_path / "runs.jsonl"
        line = _RUN_LINE % (0, 5)
        path.write_text(_manifest(10).to_json() + "\n" + line + "\n" + line[:10])
        source = JsonlRunSource(path)
        for _ in range(2):
            list(source.chunks(10))
        assert source.truncated_lines == 1


def _window_triples(window):
    """A store day window's rows as sorted python triples."""
    _index, days, v4, v6 = window
    return sorted(zip(days.tolist(), v4.tolist(), (key << 64 for key in v6.tolist())))


class TestTripleChunkBoundaries:
    """Day windows of a triple store, the chunks association streams fold."""

    def test_spell_split_across_chunks(self, tmp_path):
        # One /64's association spell spans days 3..8; with 5-day windows
        # its reports land in two windows.
        triples = [(day, 100, 1 << 64) for day in range(3, 9)]
        store = build_store_from_triples(triples, tmp_path / "store", shards=2)
        windows = list(store.iter_day_windows(5))
        assert [window[0] for window in windows] == [0, 1]
        assert _window_triples(windows[0]) == triples[:2]
        assert _window_triples(windows[1]) == triples[2:]

    def test_empty_day_windows_emitted_up_to_min_days(self, tmp_path):
        store = build_store_from_triples([(1, 100, 1 << 64)], tmp_path / "store", shards=2)
        windows = list(store.iter_day_windows(5, 0, 4))
        assert [len(window[1]) for window in windows] == [1, 0, 0, 0]
        result = run_association_stream_over_store(store, 5, min_days=20)
        assert result.chunks_folded == 4
        assert result.durations == {1: 1}
