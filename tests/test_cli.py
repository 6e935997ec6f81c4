"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io.records import (
    read_association_csv,
    read_echo_records,
    read_echo_runs,
    write_association_csv,
)


class TestSimulateAtlas:
    def test_writes_runs_and_summary(self, tmp_path, capsys):
        output = tmp_path / "atlas"
        code = main([
            "simulate-atlas", "--probes-per-as", "3", "--years", "0.5",
            "--seed", "1", "--output", str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        runs_file = output / "echo_runs.jsonl"
        assert runs_file.exists()
        with runs_file.open() as stream:
            runs = list(read_echo_runs(stream))
        assert runs
        summary = (output / "sanitization.txt").read_text()
        assert "kept probes" in summary


class TestSimulateCdn:
    def test_writes_csv(self, tmp_path):
        output = tmp_path / "cdn" / "assoc.csv"
        code = main([
            "simulate-cdn", "--days", "20", "--seed", "2",
            "--fixed-subscribers", "60", "--mobile-devices", "40",
            "--featured-subscribers", "30", "--output", str(output),
        ])
        assert code == 0
        with output.open() as stream:
            triples = list(read_association_csv(stream))
        assert triples
        assert all(0 <= day < 20 for day, _v4, _v6 in triples)


class TestStoreBuild:
    @pytest.mark.parametrize(
        "bad_triple, message",
        [
            ((3, 0x0A000001, (0x20010DB8 << 96) | 1), "not a /64"),
            ((1 << 16, 0x0A000001, 0x20010DB8 << 96), "uint16"),
        ],
        ids=["v6-key-low-bits", "day-out-of-range"],
    )
    def test_failed_build_leaves_nothing_and_retry_succeeds(
        self, tmp_path, capsys, bad_triple, message
    ):
        good = [(day, 0x0A000001 + day, (0x20010DB8 << 96) | (day << 64)) for day in range(4)]
        feed = tmp_path / "feed.csv"
        output = tmp_path / "store"
        with feed.open("w") as stream:
            write_association_csv(good + [bad_triple], stream)
        argv = ["store", "build", "--triples", str(feed), "--output", str(output)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not output.exists()
        with feed.open("w") as stream:
            write_association_csv(good, stream)
        assert main(argv) == 0
        assert "built store" in capsys.readouterr().out
        assert output.is_dir()

    def test_existing_output_is_kept(self, tmp_path, capsys):
        output = tmp_path / "store"
        output.mkdir()
        (output / "keep").write_text("mine")
        feed = tmp_path / "feed.csv"
        with feed.open("w") as stream:
            write_association_csv([(1 << 16, 1, 0)], stream)
        assert main(["store", "build", "--triples", str(feed), "--output", str(output)]) == 1
        assert "already exists" in capsys.readouterr().err
        assert (output / "keep").read_text() == "mine"


class TestReport:
    def test_prints_tables(self, capsys):
        code = main(["report", "--probes-per-as", "3", "--years", "0.5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "DTAG" in out and "Netcologne" in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main([
            "report", "--probes-per-as", "3", "--years", "0.5", "--seed", "3",
            "--json", str(path),
        ])
        assert code == 0
        assert f"report written to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-report/1"
        assert set(payload["table1"]) == set(payload["table2"])
        assert "DTAG" in payload["table1"]
        row = payload["table1"]["DTAG"]
        assert {"name", "asn", "all_probes", "all_v4_changes"} <= set(row)
        assert set(payload["periodicity"]) == {"v4", "v6"}

    def test_engines_print_identical_output(self, tmp_path, capsys):
        outputs, payloads = [], []
        for engine in ("fused", "py"):
            path = tmp_path / f"report_{engine}.json"
            assert main([
                "report", "--probes-per-as", "3", "--years", "0.5", "--seed", "3",
                "--engine", engine, "--json", str(path),
            ]) == 0
            out = capsys.readouterr().out
            outputs.append(out.replace(str(path), "<json>"))
            payload = json.loads(path.read_text())
            assert payload.pop("engine") == engine
            payloads.append(payload)
        assert outputs[0] == outputs[1]
        assert payloads[0] == payloads[1]


def _leading_json(out):
    """Parse the JSON document at the start of ``out``.

    ``main()`` may append scenario-cache stats lines after the command's
    output when caches saw activity earlier in the process.
    """
    document, _end = json.JSONDecoder().raw_decode(out)
    return document


@pytest.mark.serve
class TestServe:
    ARGS = ["--probes-per-as", "2", "--years", "0.4", "--seed", "5"]

    def test_status_table(self, capsys):
        code = main(["serve", *self.ARGS, "--status"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving components" in out
        assert "artifact-registry" in out

    def test_query_one_shot(self, capsys):
        code = main([
            "serve", *self.ARGS,
            "--query", '{"kind": "lifetime", "network": "DTAG"}',
        ])
        assert code == 0
        document = _leading_json(capsys.readouterr().out)
        assert document["result"]["kind"] == "lifetime"
        assert document["result"]["asn"] == 3320

    def test_query_batch_and_errors(self, capsys):
        code = main([
            "serve", *self.ARGS,
            "--query",
            '[{"kind": "lifetime", "network": "DTAG"},'
            ' {"kind": "lifetime", "network": "Versatel"}]',
        ])
        assert code == 0
        document = _leading_json(capsys.readouterr().out)
        assert [r["network"] for r in document["results"]] == ["DTAG", "Versatel"]
        code = main([
            "serve", *self.ARGS, "--query", '{"kind": "nope"}',
        ])
        assert code == 1
        assert "unknown query kind" in capsys.readouterr().err

    def test_export_graph(self, tmp_path, capsys):
        path = tmp_path / "graph.jsonl"
        code = main(["serve", *self.ARGS, "--export-graph", str(path)])
        assert code == 0
        assert "graph written to" in capsys.readouterr().out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["type"] for r in records} == {"node", "edge"}

    def test_http_smoke(self):
        """End-to-end over real sockets: ServeClient against http.server."""
        import threading

        from repro.serve import ServeApp, ServeClient, make_server, observed_prefixes
        from repro.workloads import build_atlas_scenario

        scenario = build_atlas_scenario(
            probes_per_as=2, years=0.4, seed=5, cache=False
        )
        app = ServeApp(scenario)
        server = make_server(app, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(base_url=f"http://{host}:{port}")
            assert client.health()["status"] == "ok"
            prefix = observed_prefixes(scenario, 6, 64, limit=1)[0]
            http_result = client.query({"kind": "stability", "prefix": str(prefix)})
            in_process = ServeClient(app=app).query(
                {"kind": "stability", "prefix": str(prefix)}
            )
            assert http_result == in_process
            batch = client.query_batch([
                {"kind": "stability", "prefix": str(prefix)},
                {"kind": "hitlist", "prefix": str(prefix), "budget": 4},
            ])
            assert [r["kind"] for r in batch] == ["stability", "hitlist"]
            status, document = client.request("POST", "/query", {"kind": "nope"})
            assert status == 400 and "unknown query kind" in document["error"]
            assert any(
                row["component"] == "artifact-registry" for row in client.status()
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestConvertAtlas:
    def test_roundtrip(self, tmp_path, capsys):
        source = tmp_path / "raw.jsonl"
        results = [
            {
                "prb_id": 7,
                "timestamp": 1409529600 + 3600 * hour,
                "type": "http",
                "result": [{
                    "af": 4,
                    "src_addr": "192.168.1.2",
                    "header": ["X-Client-IP: 31.0.0.5"],
                }],
            }
            for hour in range(4)
        ]
        source.write_text("\n".join(json.dumps(r) for r in results) + "\n")
        output = tmp_path / "converted.jsonl"
        code = main(["convert-atlas", "--input", str(source), "--output", str(output)])
        assert code == 0
        assert "converted 4 records" in capsys.readouterr().out
        with output.open() as stream:
            records = list(read_echo_records(stream))
        assert [record.hour for record in records] == [0, 1, 2, 3]


class TestAnalyze:
    def test_end_to_end(self, tmp_path, capsys):
        output = tmp_path / "atlas"
        main([
            "simulate-atlas", "--probes-per-as", "3", "--years", "1.0",
            "--seed", "9", "--output", str(output),
        ])
        capsys.readouterr()
        code = main(["analyze", "--input", str(output / "echo_runs.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "probes:" in out
        assert "IPv4:" in out
        assert "periodic renumbering detected" in out  # DTAG et al. at 24h

    def test_engines_print_identical_output(self, tmp_path, capsys):
        output = tmp_path / "atlas"
        main([
            "simulate-atlas", "--probes-per-as", "2", "--years", "0.5",
            "--seed", "4", "--output", str(output),
        ])
        capsys.readouterr()
        outputs = []
        for engine in ("fused", "py"):
            runs = str(output / "echo_runs.jsonl")
            assert main(["analyze", "--input", runs, "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_converted_hourly_records_are_named_not_traced_back(self, tmp_path, capsys):
        source = tmp_path / "raw.jsonl"
        source.write_text("".join(
            json.dumps({
                "prb_id": 7,
                "timestamp": 1409529600 + 3600 * hour,
                "result": [{"af": 4, "src_addr": "192.168.1.2",
                            "header": ["X-Client-IP: 31.0.0.5"]}],
            }) + "\n"
            for hour in range(10)
        ))
        converted = tmp_path / "converted.jsonl"
        assert main(["convert-atlas", "--input", str(source), "--output", str(converted)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--input", str(converted)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {converted} holds convert-atlas hourly echo records, not echo runs\n"
        )
        assert "Traceback" not in captured.err

    def test_non_json_line_is_an_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        runs.write_text("not json\n")
        assert main(["analyze", "--input", str(runs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {runs}: line 1: ")
        assert err.count("\n") == 1

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["analyze", "--input", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {missing}: No such file or directory\n"
        )


class TestStream:
    def test_scenario_mode_prints_tables_and_stats(self, capsys):
        code = main([
            "stream", "--probes-per-as", "3", "--years", "0.5", "--seed", "3",
            "--chunk-hours", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "streamed" in out and "chunk(s) of 300h" in out

    def test_export_checkpoint_stop_and_resume(self, tmp_path, capsys):
        export = tmp_path / "runs.jsonl"
        ckpt = tmp_path / "ckpt"
        base = [
            "stream", "--probes-per-as", "2", "--years", "0.4", "--seed", "5",
            "--chunk-hours", "250",
        ]
        code = main(base + ["--export", str(export)])
        assert code == 0 and export.exists()
        full = capsys.readouterr().out
        file_args = ["stream", "--input", str(export), "--chunk-hours", "250"]
        code = main(file_args + ["--checkpoint", str(ckpt), "--stop-after", "2"])
        assert code == 0
        assert "stopped after 2 chunk(s)" in capsys.readouterr().out
        code = main(file_args + ["--checkpoint", str(ckpt), "--resume"])
        assert code == 0
        resumed = capsys.readouterr().out
        assert "resumed from chunk 2" in resumed
        # File mode matches the scenario pass line-for-line on Table 1
        # (no Table 2: the file carries no routing table).
        table1 = full[full.index("Table 1"): full.index("Table 2")]
        assert table1.replace("\n\n", "\n") in resumed.replace("\n\n", "\n")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_engine_rejects_retired_np(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--engine", "np"])
        err = capsys.readouterr().err
        assert "'fused'" in err and "'py'" in err
