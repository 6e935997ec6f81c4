"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``simulate-atlas``
    Build the Atlas measurement study and write per-probe echo runs
    (JSONL) plus a sanitization summary.
``simulate-cdn``
    Build the CDN association dataset and write it as CSV.
``report``
    Build a scenario and print the paper's Table 1 / Table 2 /
    periodicity summaries.
``convert-atlas``
    Convert real RIPE Atlas HTTP measurement results (JSONL) into the
    pipeline's echo-record JSONL.
``stream``
    Run the chunked, checkpointable streaming analysis (bit-identical
    to ``report``'s batch fused artifacts) over a built scenario or an
    exported run-stream file, optionally resuming from a checkpoint.
``store build`` / ``store analyze`` / ``store compact``
    Build a sharded memory-mapped triple store (from a CSV, a synthetic
    feed, or a CDN simulation — ``--workers N`` fans the per-shard
    finalize out to a pool, byte-identical to the serial build, and
    ``--spill-rows`` bounds the writer's buffers at every worker count),
    analyze it shard-by-shard out-of-core (artifacts bit-identical to
    the in-RAM columnar path), and merge finalized stores via
    k-way compaction (incremental append-then-compact).
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.atlas.convert import convert_results
from repro.core.engine import ENGINES
from repro.core.report import render_table
from repro.io.records import write_association_csv, write_echo_records, write_echo_runs
from repro.obs import configure_logging, dump_telemetry, enable_telemetry, span
from repro.perf.cache import iter_cache_stats
from repro.workloads import (
    analyze_atlas_scenario,
    build_atlas_scenario,
    build_cdn_scenario,
    periodicity_for_scenario,
)


def _common_parser() -> argparse.ArgumentParser:
    """Options shared by every subcommand (logging + telemetry).

    Attached via ``parents=`` on each subparser — subparsers overwrite
    previously parsed defaults, so putting these on the main parser
    would silently reset them.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v: info, -vv: debug); "
                        "default level comes from $REPRO_LOG")
    common.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (errors only)")
    common.add_argument("--telemetry", default=None, metavar="PATH",
                        help="enable tracing spans + metrics and dump them "
                        "as JSON to PATH on exit")
    return common


def _add_atlas_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--probes-per-as", type=int, default=15,
                        help="probes deployed per featured AS (default: 15)")
    parser.add_argument("--years", type=float, default=2.0,
                        help="simulated measurement years (default: 2)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    _add_perf_args(parser)


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for scenario generation "
                        "(default: $REPRO_WORKERS or serial); the result is "
                        "identical for any worker count")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk scenario cache even when "
                        "REPRO_CACHE enables it")


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="analysis kernels: the single-pass fused engine "
                        "('fused') or the pure-Python reference ('py'); both "
                        "are bit-identical (default: fused)")


def _cache_flag(args: argparse.Namespace):
    """False when --no-cache was given, else None (environment default)."""
    return False if args.no_cache else None


def cmd_simulate_atlas(args: argparse.Namespace) -> int:
    """Generate an Atlas-style dataset and write runs + summary."""
    scenario = build_atlas_scenario(
        probes_per_as=args.probes_per_as,
        years=args.years,
        seed=args.seed,
        workers=args.workers,
        cache=_cache_flag(args),
    )
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    runs_path = output / "echo_runs.jsonl"
    with runs_path.open("w") as stream:
        written = 0
        for probe in scenario.probes:
            written += write_echo_runs(probe.v4_runs, stream)
            written += write_echo_runs(probe.v6_runs, stream)
    report = scenario.report
    summary_path = output / "sanitization.txt"
    summary_path.write_text(
        f"input probes:      {report.input_probes}\n"
        f"kept probes:       {report.kept_probes}\n"
        f"virtual probes:    {report.virtual_probes_created}\n"
        f"bad tags dropped:  {report.dropped_bad_tag}\n"
        f"atypical NAT:      {report.dropped_atypical_nat}\n"
        f"multihomed:        {report.dropped_multihomed}\n"
        f"short duration:    {report.dropped_short}\n"
    )
    print(f"wrote {written} runs for {report.kept_probes} probes to {runs_path}")
    print(f"sanitization summary in {summary_path}")
    return 0


def cmd_simulate_cdn(args: argparse.Namespace) -> int:
    """Generate a CDN association dataset and write it as CSV."""
    scenario = build_cdn_scenario(
        days=args.days,
        seed=args.seed,
        fixed_subscribers_per_registry=args.fixed_subscribers,
        mobile_devices_per_registry=args.mobile_devices,
        featured_subscribers=args.featured_subscribers,
        workers=args.workers,
        cache=_cache_flag(args),
    )
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    with output.open("w") as stream:
        written = write_association_csv(scenario.dataset.iter_triples(), stream)
    print(
        f"wrote {written} associations ({scenario.dataset.discarded_asn_mismatch}"
        f" discarded by the ASN filter) to {output}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Build a scenario and print Table 1 / Table 2 / periodicity summaries."""
    scenario = build_atlas_scenario(
        probes_per_as=args.probes_per_as,
        years=args.years,
        seed=args.seed,
        workers=args.workers,
        cache=_cache_flag(args),
    )
    analysis = analyze_atlas_scenario(scenario, engine=args.engine)
    v4_periods, v6_periods = periodicity_for_scenario(scenario, engine=args.engine)
    _print_report(analysis, v4_periods, v6_periods, streamed=False)
    if args.json:
        from repro.serve.wire import report_payload, write_json

        payload = report_payload(
            analysis.engine,
            analysis.table1,
            analysis.table2,
            v4_periods,
            v6_periods,
            scenario=scenario,
        )
        path = write_json(payload, Path(args.json))
        print(f"report written to {path}")
    return 0


def _print_report(analysis, v4_periods, v6_periods, streamed: bool) -> None:
    """Print Table 1, Table 2 (when computed) and the periodicity table.

    ``streamed`` labels the titles for ``repro stream`` and lists the
    periodic networks by name instead of in the analysis order.
    """
    suffix = " (streamed)" if streamed else ""
    names = sorted(set(v4_periods) | set(v6_periods)) if streamed else analysis.table1
    with span("report/render"):
        table1_rows = [
            [row.name, row.asn, row.all_probes, row.all_v4_changes, row.ds_probes,
             f"{row.ds_v4_changes} ({row.ds_v4_share_pct:.0f}%)", row.ds_v6_changes]
            for row in analysis.table1.values()
        ]
        print(render_table(
            ["AS", "ASN", "probes", "v4 changes", "DS probes", "DS v4 changes", "v6 changes"],
            table1_rows,
            title=f"Table 1: assignment changes per AS{suffix}",
        ))
        if analysis.table2:
            table2_rows = [
                [name, f"{rates.diff_slash24_pct:.0f}%", f"{rates.v4_diff_bgp_pct:.0f}%",
                 f"{rates.v6_diff_bgp_pct:.0f}%"]
                for name, rates in analysis.table2.items()
            ]
            print()
            print(render_table(
                ["AS", "Diff /24", "Diff BGP (v4)", "Diff BGP (v6)"],
                table2_rows,
                title=f"Table 2: boundary crossings{suffix}",
            ))
        period_rows = [
            [name,
             f"{v4_periods[name]:.0f}h" if name in v4_periods else "-",
             f"{v6_periods[name]:.0f}h" if name in v6_periods else "-"]
            for name in names
            if name in v4_periods or name in v6_periods
        ]
        print()
        if period_rows:
            print(render_table(
                ["AS", "v4 NDS period", "v6 period"],
                period_rows,
                title=f"Periodic renumbering ({'streamed' if streamed else 'Section 3.2'})",
            ))
        else:
            print("Periodic renumbering: none detected")


def _print_serve_status(app=None) -> None:
    """Render the uniform component-stats table (``repro serve --status``)."""
    from repro.perf.cache import iter_component_stats

    rows = [
        [component, identity, stats.hits, stats.misses, stats.puts,
         stats.errors, stats.evictions]
        for component, identity, stats in iter_component_stats()
    ]
    if not rows:
        print("no cache-like components active")
    else:
        print(render_table(
            ["component", "identity", "hits", "misses", "puts", "errors", "evictions"],
            rows,
            title="Serving components",
        ))
    if app is not None:
        info = app.process_info()
        peak = info.get("peak_rss_bytes")
        peak_mib = f"{peak / 2**20:.1f} MiB" if peak else "n/a"
        print(
            f"process: pid={info['pid']} uptime={info['uptime_seconds']:.1f}s "
            f"peak_rss={peak_mib} code={info['code_fingerprint'][:12]}"
        )


def cmd_serve(args: argparse.Namespace) -> int:
    """Answer address-dynamics queries from precomputed artifacts."""
    import json as json_module

    from repro.serve import ServeApp, build_graph, make_server, write_graph

    scenario = build_atlas_scenario(
        probes_per_as=args.probes_per_as,
        years=args.years,
        seed=args.seed,
        workers=args.workers,
        cache=_cache_flag(args),
    )
    app = ServeApp(
        scenario,
        slow_query_ms=args.slow_query_ms,
        flight_recorder=args.flight_recorder,
    )
    acted = False
    if args.query:
        payload = json_module.loads(args.query)
        if isinstance(payload, list):
            payload = {"queries": payload}
        status, document = app.handle("POST", "/query", payload)
        if status != 200:
            print(f"error: {document.get('error')}", file=sys.stderr)
            return 1
        print(json_module.dumps(document, indent=2, sort_keys=True))
        acted = True
    if args.export_graph:
        graph = build_graph(scenario)
        path = write_graph(graph, Path(args.export_graph))
        print(
            f"graph written to {path} "
            f"({len(graph.nodes)} nodes, {len(graph.edges)} edges)"
        )
        acted = True
    if args.port is not None:
        enable_telemetry()  # keep /metrics live for HTTP clients
        server = make_server(app, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(
            f"serving on http://{host}:{port} "
            "(GET /healthz /status /metrics /graph /debug/trace /debug/slow, "
            "POST /query)"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            server.server_close()
        return 0
    if args.status or not acted:
        # Prime the artifact so the status table shows real serving
        # traffic rather than all-zero registries.
        app.engine.artifact()
        app.engine.artifact()
        _print_serve_status(app)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Analyze an echo-runs JSONL file: durations, TTF, periodicity."""
    from collections import defaultdict

    from repro.core.changes import sandwiched_durations, v6_runs_to_prefix_runs
    from repro.core.periodicity import detect_periods
    from repro.core.engine import resolve_engine
    from repro.core.report import figure1_series
    from repro.core.timefraction import CANONICAL_LABELS
    from repro.io.records import read_echo_runs

    engine = resolve_engine(args.engine)
    by_probe: dict = defaultdict(lambda: {4: [], 6: []})
    try:
        with Path(args.input).open() as stream:
            for run in read_echo_runs(stream):
                by_probe[run.probe_id][run.family].append(run)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if _holds_hourly_records(Path(args.input)):
            print(
                f"error: {args.input} holds convert-atlas hourly echo records, "
                "not echo runs",
                file=sys.stderr,
            )
        else:
            print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1

    durations = {4: [], 6: []}
    if engine == "fused":
        from repro.core import analysis_np as anp

        families = list(by_probe.values())
        v4_cols = anp.columns_from_runs([fam[4] for fam in families])
        v6_cols = anp.rekey_v6_runs(anp.columns_from_runs([fam[6] for fam in families if fam[6]]))
        for family, cols in ((4, v4_cols), (6, v6_cols)):
            _changes, exact, _ = anp.changes_and_durations(*cols.rows())
            durations[family] = exact.hours().astype(float).tolist()
    else:
        for families in by_probe.values():
            for duration in sandwiched_durations(families[4]):
                durations[4].append(float(duration.hours))
            if families[6]:
                prefix_runs = v6_runs_to_prefix_runs(families[6])
                for duration in sandwiched_durations(prefix_runs):
                    durations[6].append(float(duration.hours))

    print(f"probes: {len(by_probe)}")
    for family, label in ((4, "IPv4"), (6, "IPv6 /64")):
        sample = durations[family]
        if not sample:
            print(f"{label}: no exact durations")
            continue
        series = figure1_series(label, sample, engine=engine)
        summary = "  ".join(
            f"{grid_label}:{value:.2f}"
            for grid_label, value in zip(CANONICAL_LABELS, series.grid_values)
            if grid_label in ("1d", "1w", "1m", "6m")
        )
        print(
            f"{label}: n={len(sample)} total={series.total_years:.1f}y "
            f"cumulative-TTF {summary}"
        )
        if engine == "fused":
            from repro.core.analysis_np import detect_periods_np

            modes = detect_periods_np(sample)
        else:
            modes = detect_periods(sample)
        if modes:
            print(f"{label}: periodic renumbering detected: "
                  + ", ".join(str(mode) for mode in modes))
    return 0


def _holds_hourly_records(path: Path) -> bool:
    """Does ``path``'s first line parse as an hourly echo record?"""
    from repro.io.records import read_echo_records

    try:
        with path.open() as stream:
            first = next((line for line in stream if line.strip()), "")
        return bool(first) and bool(list(read_echo_records([first])))
    except ValueError:
        return False


def cmd_stream(args: argparse.Namespace) -> int:
    """Stream a scenario (or exported run-stream file) chunk by chunk."""
    from repro.stream import (
        CheckpointStore,
        JsonlRunSource,
        ScenarioRunSource,
        run_atlas_stream,
        stream_triples_from_csv,
        write_run_stream,
    )

    store = None
    if args.checkpoint is not None or args.resume:
        directory = None if args.checkpoint in (None, True) else args.checkpoint
        store = CheckpointStore(directory)

    if args.input:
        source = JsonlRunSource(Path(args.input))
        table = None
    else:
        scenario = build_atlas_scenario(
            probes_per_as=args.probes_per_as,
            years=args.years,
            seed=args.seed,
            workers=args.workers,
            cache=_cache_flag(args),
        )
        if args.export:
            export = Path(args.export)
            export.parent.mkdir(parents=True, exist_ok=True)
            with export.open("w") as stream:
                write_run_stream(scenario, stream)
            print(f"exported run stream to {export}")
        source = ScenarioRunSource.from_scenario(scenario)
        table = scenario.table

    result = run_atlas_stream(
        source,
        args.chunk_hours,
        table=table,
        store=store,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        stop_after_chunks=args.stop_after,
        min_probes=args.min_probes,
    )
    if result is None:
        print(
            f"stopped after {args.stop_after} chunk(s); "
            "state checkpointed, rerun with --resume to continue"
        )
        return 0

    _print_report(result.analysis, result.v4_periods, result.v6_periods, streamed=True)

    stats = result.stats
    print()
    resumed = (
        f" (resumed from chunk {stats.resumed_from_chunk})"
        if stats.resumed_from_chunk is not None
        else ""
    )
    print(
        f"streamed {stats.runs_seen} runs in {stats.chunks_folded} "
        f"chunk(s) of {args.chunk_hours}h{resumed}; "
        f"{stats.checkpoints_written} checkpoint(s) written"
    )

    if args.triples:
        import tempfile

        from repro.store import build_store_from_triples
        from repro.stream import run_association_stream_over_store

        # Association streams fold off a triple store.  The simulate-cdn
        # CSV is grouped by ASN, not day-ordered; sharding it into a
        # scratch store keeps memory bounded (spill buffers + one day
        # window) whatever its row order.
        with tempfile.TemporaryDirectory(prefix="repro-stream-") as scratch:
            triple_store = build_store_from_triples(
                stream_triples_from_csv(Path(args.triples)),
                Path(scratch) / "triples",
                shards=8,
            )
            assoc = run_association_stream_over_store(triple_store, args.chunk_days)
        box = assoc.box
        summary = (
            f"median {box.median:.1f}d (q1 {box.q1:.1f}, q3 {box.q3:.1f})"
            if box is not None
            else "no complete associations"
        )
        print(
            f"associations: {assoc.triples_seen} triples in "
            f"{assoc.chunks_folded} chunk(s) of {args.chunk_days}d; "
            f"durations {summary}; "
            f"degree-1 /64 fraction {assoc.fraction_v6_degree_one:.2f}"
        )
    return 0


def cmd_store_build(args: argparse.Namespace) -> int:
    """Build a sharded memmap triple store from one of three sources."""
    output = Path(args.output)
    if output.exists():
        print(f"error: {output} already exists", file=sys.stderr)
        return 1
    try:
        store = _build_store(args, output)
    except BaseException as exc:
        # The output did not exist before this call: a failed build
        # removes what it wrote, so the user can fix the input and retry.
        shutil.rmtree(output, ignore_errors=True)
        if not isinstance(exc, ValueError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"built store at {store.directory}: {store.total_triples} triples in "
        f"{store.shards} shard(s), days {store.day_min}..{store.day_max}"
    )
    return 0


def _build_store(args: argparse.Namespace, output: Path) -> Any:
    """The store of ``repro store build``'s chosen source, written to ``output``."""
    from repro.store import build_store_from_columns, build_store_from_triples
    from repro.stream import stream_triples_from_csv

    if args.triples:
        return build_store_from_triples(
            stream_triples_from_csv(Path(args.triples)),
            output,
            shards=args.shards,
            spill_rows=args.spill_rows,
            workers=args.workers,
            source={"kind": "csv", "path": str(args.triples)},
        )
    if args.synthetic:
        from repro.store import synthetic_triple_batches

        return build_store_from_columns(
            synthetic_triple_batches(
                args.synthetic, seed=args.seed, days=args.days
            ),
            output,
            shards=args.shards,
            spill_rows=args.spill_rows,
            workers=args.workers,
            source={"kind": "synthetic", "total": args.synthetic, "seed": args.seed},
        )
    from repro.workloads import build_cdn_scenario, build_cdn_triple_store

    scenario = build_cdn_scenario(
        days=args.days,
        seed=args.seed,
        workers=args.workers,
        cache=_cache_flag(args),
    )
    return build_cdn_triple_store(
        scenario, output, shards=args.shards, workers=args.workers
    )


def cmd_store_analyze(args: argparse.Namespace) -> int:
    """Analyze a triple store shard-by-shard out-of-core."""
    from repro.store import StoreCorruptError, TripleStore
    from repro.workloads import analyze_triple_store

    try:
        store = TripleStore.open(Path(args.store), verify=args.verify)
    except StoreCorruptError as exc:
        print(f"error: {exc} — rebuild with 'repro store build'", file=sys.stderr)
        return 1
    analysis = analyze_triple_store(store, workers=args.workers)
    summary = analysis.summary()
    box = summary["box"]
    box_text = (
        f"median {box['median']:.1f}d (q1 {box['q1']:.1f}, q3 {box['q3']:.1f}, "
        f"p95 {box['p95']:.1f})"
        if box
        else "no complete associations"
    )
    delegation = summary["delegation"]
    boundary_text = (
        "  ".join(
            f"/{plen}:{count}" for plen, count in delegation["by_boundary"].items()
        )
        or "none"
    )
    print(
        f"store {store.directory}: {summary['total_triples']} triples, "
        f"{summary['shards']} shard(s)"
    )
    print(f"associations: {summary['associations']} runs; durations {box_text}")
    print(
        f"degrees: {summary['distinct_v4']} /24s, {summary['distinct_v6']} /64s, "
        f"degree-1 /64 fraction {summary['fraction_v6_degree_one']:.2f}"
    )
    print(
        f"delegation (Fig 7): {delegation['inferable_pct']:.0f}% inferable — "
        f"{boundary_text}"
    )
    if args.json:
        import json as json_module

        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json_module.dumps(summary, indent=1) + "\n")
        print(f"summary written to {json_path}")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Compact (merge) finalized triple stores into one store."""
    from repro.store import StoreCorruptError, TripleStore, compact_stores

    output = Path(args.output)
    if output.exists():
        print(f"error: {output} already exists", file=sys.stderr)
        return 1
    stores = []
    for path in args.inputs:
        try:
            stores.append(TripleStore.open(Path(path)))
        except StoreCorruptError as exc:
            print(f"error: {exc} — rebuild with 'repro store build'", file=sys.stderr)
            return 1
    merged = compact_stores(
        stores,
        output,
        shards=args.shards,
        workers=args.workers,
        source={
            "kind": "compaction",
            "inputs": [str(store.directory) for store in stores],
        },
    )
    print(
        f"compacted {len(stores)} store(s) into {merged.directory}: "
        f"{merged.total_triples} triples in {merged.shards} shard(s), "
        f"days {merged.day_min}..{merged.day_max}"
    )
    return 0


def cmd_convert_atlas(args: argparse.Namespace) -> int:
    """Convert real RIPE Atlas results JSONL into echo records."""
    input_path = Path(args.input)
    with input_path.open() as stream:
        records, stats = convert_results(stream)
    records.sort(key=lambda record: (record.probe_id, record.family, record.hour))
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    with output.open("w") as stream:
        write_echo_records(records, stream)
    print(
        f"converted {stats.converted} records "
        f"({stats.missing_client_ip} without X-Client-IP, "
        f"{stats.unparseable} unparseable) to {output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DynamIPs reproduction: simulate, convert, and analyze "
        "IP address-assignment dynamics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()

    atlas = commands.add_parser(
        "simulate-atlas", help="generate an Atlas-style dataset", parents=[common]
    )
    _add_atlas_args(atlas)
    atlas.add_argument("--output", required=True, help="output directory")
    atlas.set_defaults(func=cmd_simulate_atlas)

    cdn = commands.add_parser(
        "simulate-cdn", help="generate a CDN association dataset", parents=[common]
    )
    cdn.add_argument("--days", type=int, default=150)
    cdn.add_argument("--seed", type=int, default=0)
    cdn.add_argument("--fixed-subscribers", type=int, default=600,
                     help="fixed subscribers per registry")
    cdn.add_argument("--mobile-devices", type=int, default=400,
                     help="mobile devices per registry")
    cdn.add_argument("--featured-subscribers", type=int, default=120)
    cdn.add_argument("--output", required=True, help="output CSV path")
    _add_perf_args(cdn)
    cdn.set_defaults(func=cmd_simulate_cdn)

    report = commands.add_parser(
        "report", help="print Table 1 / Table 2 summaries", parents=[common]
    )
    _add_atlas_args(report)
    _add_engine_arg(report)
    report.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as machine-readable JSON "
                        "(the serve layer's wire format)")
    report.set_defaults(func=cmd_report)

    serve = commands.add_parser(
        "serve",
        help="serve address-dynamics queries from precomputed artifacts",
        parents=[common],
    )
    _add_atlas_args(serve)
    serve.add_argument("--status", action="store_true",
                       help="print the uniform component stats table "
                       "(scenario caches, checkpoint stores, artifact "
                       "registries) and exit")
    serve.add_argument("--query", default=None, metavar="JSON",
                       help="answer one query (JSON object) or a coalesced "
                       "batch (JSON array) and exit; e.g. "
                       "'{\"kind\": \"stability\", \"prefix\": \"192.0.2.0/24\"}'")
    serve.add_argument("--export-graph", default=None, metavar="PATH",
                       help="write the knowledge graph as node/edge JSONL "
                       "and exit")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default: 127.0.0.1)")
    serve.add_argument("--slow-query-ms", type=float, default=250.0,
                       metavar="MS",
                       help="threshold for the structured slow-query log "
                            "(default: 250)")
    serve.add_argument("--flight-recorder", type=int, default=64, metavar="N",
                       help="completed request spans kept in the /debug/trace "
                            "ring buffer (default: 64)")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="start the HTTP JSON API on this port "
                       "(0 picks a free port); omit to run one-shot actions")
    serve.set_defaults(func=cmd_serve)

    convert = commands.add_parser(
        "convert-atlas",
        help="convert real RIPE Atlas results JSONL to echo records",
        parents=[common],
    )
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.set_defaults(func=cmd_convert_atlas)

    analyze = commands.add_parser(
        "analyze",
        help="analyze an echo-runs JSONL file (durations, periodicity)",
        parents=[common],
    )
    analyze.add_argument("--input", required=True)
    _add_engine_arg(analyze)
    analyze.set_defaults(func=cmd_analyze)

    stream = commands.add_parser(
        "stream",
        help="chunked, checkpointable streaming analysis (batch-identical)",
        parents=[common],
    )
    _add_atlas_args(stream)
    stream.add_argument("--input", default=None, metavar="PATH",
                        help="stream an exported run-stream JSONL file instead "
                        "of building a scenario (no Table 2: the file carries "
                        "no routing table)")
    stream.add_argument("--export", default=None, metavar="PATH",
                        help="also write the scenario's run stream to PATH "
                        "(readable later via --input)")
    stream.add_argument("--chunk-hours", type=int, default=720,
                        help="hours per chunk (default: 720); any value yields "
                        "bit-identical artifacts")
    stream.add_argument("--checkpoint", nargs="?", const=True, default=None,
                        metavar="DIR",
                        help="persist engine state every --checkpoint-every "
                        "chunks (default DIR: <scenario cache>/checkpoints)")
    stream.add_argument("--resume", action="store_true",
                        help="resume from a matching persisted checkpoint")
    stream.add_argument("--checkpoint-every", type=int, default=1,
                        help="chunks between checkpoints (default: 1)")
    stream.add_argument("--stop-after", type=int, default=None, metavar="N",
                        help="abort after N chunks (persisting state first) — "
                        "simulates a killed run")
    stream.add_argument("--min-probes", type=int, default=3,
                        help="probes required for a network periodicity call")
    stream.add_argument("--triples", default=None, metavar="PATH",
                        help="also stream a CDN association CSV")
    stream.add_argument("--chunk-days", type=int, default=7,
                        help="days per association chunk (default: 7)")
    stream.set_defaults(func=cmd_stream)

    store = commands.add_parser(
        "store",
        help="out-of-core sharded memmap triple store (build / analyze)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_build = store_commands.add_parser(
        "build",
        help="build a store from a CSV, a synthetic feed, or a CDN simulation",
        parents=[common],
    )
    store_build.add_argument("--output", required=True, metavar="DIR",
                             help="store directory to create (must not exist)")
    store_build.add_argument("--triples", default=None, metavar="CSV",
                             help="stream triples from a simulate-cdn CSV")
    store_build.add_argument("--synthetic", type=int, default=None, metavar="N",
                             help="generate N deterministic synthetic triples "
                             "instead of reading a CSV")
    store_build.add_argument("--shards", type=int, default=16,
                             help="shard count; /24s are hash-sharded "
                             "(default: 16)")
    store_build.add_argument("--spill-rows", type=int, default=1 << 18,
                             help="rows buffered per shard before spilling "
                             "(default: 262144)")
    store_build.add_argument("--days", type=int, default=150,
                             help="day span for --synthetic or the CDN "
                             "simulation (default: 150)")
    store_build.add_argument("--seed", type=int, default=0)
    _add_perf_args(store_build)
    store_build.set_defaults(func=cmd_store_build)

    store_analyze = store_commands.add_parser(
        "analyze",
        help="analyze a store shard-by-shard out-of-core",
        parents=[common],
    )
    store_analyze.add_argument("--store", required=True, metavar="DIR",
                               help="store directory built by 'store build'")
    store_analyze.add_argument("--verify", action="store_true",
                               help="re-hash every shard against the manifest "
                               "checksums before analyzing")
    store_analyze.add_argument("--json", default=None, metavar="PATH",
                               help="also write the summary as JSON to PATH")
    store_analyze.add_argument("--workers", type=int, default=None,
                               help="worker processes for the per-shard pass "
                               "(default: $REPRO_WORKERS or serial)")
    store_analyze.set_defaults(func=cmd_store_analyze)

    store_compact = store_commands.add_parser(
        "compact",
        help="merge finalized stores into one (incremental append-then-compact)",
        parents=[common],
    )
    store_compact.add_argument("--inputs", required=True, nargs="+", metavar="DIR",
                               help="finalized store directories to merge")
    store_compact.add_argument("--output", required=True, metavar="DIR",
                               help="merged store directory to create "
                               "(must not exist)")
    store_compact.add_argument("--shards", type=int, default=None,
                               help="output shard count (default: the first "
                               "input's; differing inputs are re-hashed)")
    store_compact.add_argument("--workers", type=int, default=None,
                               help="worker processes for the per-shard merge "
                               "(default: $REPRO_WORKERS or serial)")
    store_compact.set_defaults(func=cmd_store_compact)

    return parser


def _print_cache_stats(telemetry_extra: dict) -> None:
    """Surface scenario-cache hit/miss counts accumulated this process.

    Printed only when some cache instance saw activity, so runs without
    ``REPRO_CACHE`` keep their exact historical stdout.
    """
    caches = {}
    for directory, stats in iter_cache_stats():
        if stats.hits or stats.misses or stats.puts or stats.errors:
            caches[str(directory)] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "puts": stats.puts,
                "errors": stats.errors,
            }
    if not caches:
        return
    telemetry_extra["caches"] = caches
    for directory, stats in caches.items():
        print(
            f"scenario cache [{directory}]: {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['puts']} put(s)"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity=args.verbose - args.quiet)
    if args.telemetry:
        enable_telemetry(reset=True)
    with span(f"cli/{args.command}"):
        code = args.func(args)
    telemetry_extra: dict = {}
    _print_cache_stats(telemetry_extra)
    if args.telemetry:
        path = dump_telemetry(args.telemetry, extra=telemetry_extra)
        print(f"telemetry written to {path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
