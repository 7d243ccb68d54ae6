"""Tests for the package CLI and the experiments CLI."""

import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import build_parser, main as cli_main
from repro.experiments.__main__ import main as experiments_main
from repro.graphs.io import save_graph
from repro.serving import DeadlineExceeded, PoolSaturated


class TestReproCLI:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "amazon2m" in out

    def test_methods_command(self, capsys):
        assert cli_main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "LACA (C)" in out and "PR-Nibble" in out

    def test_cluster_on_dataset(self, capsys):
        code = cli_main(
            ["cluster", "--dataset", "cora", "--scale", "0.1", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision:" in out
        assert "conductance:" in out

    def test_cluster_on_saved_graph(self, small_sbm, tmp_path, capsys):
        path = save_graph(small_sbm, tmp_path / "g")
        code = cli_main(
            ["cluster", "--graph", str(path), "--seed", "0", "--size", "10",
             "--method", "PR-Nibble"]
        )
        assert code == 0
        assert "PR-Nibble" in capsys.readouterr().out

    def test_cluster_batch_multiple_seeds(self, capsys):
        code = cli_main(
            ["cluster", "--dataset", "cora", "--scale", "0.1",
             "--seed", "0", "7", "23", "--batch"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched query over 3 seeds" in out
        assert "throughput" in out
        assert out.count("precision") == 3

    def test_cluster_multiple_seeds_implies_batch(self, capsys):
        code = cli_main(
            ["cluster", "--dataset", "cora", "--scale", "0.1", "--seed", "1", "2"]
        )
        assert code == 0
        assert "batched query over 2 seeds" in capsys.readouterr().out

    def test_cluster_batch_on_saved_graph_needs_size(self, small_sbm, tmp_path):
        from repro.graphs.graph import AttributedGraph

        bare = AttributedGraph(adjacency=small_sbm.adjacency)
        path = save_graph(bare, tmp_path / "bare")
        with pytest.raises(SystemExit, match="--size"):
            cli_main(["cluster", "--graph", str(path), "--seed", "0", "1"])

    def test_cluster_requires_source(self):
        with pytest.raises(SystemExit):
            cli_main(["cluster", "--seed", "0"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "--dataset", "cora", "--seed", "0", "--method", "X"]
            )

    def test_cluster_json_single_seed(self, capsys):
        code = cli_main(
            ["cluster", "--dataset", "cora", "--scale", "0.1", "--seed", "0",
             "--json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 0
        assert record["method"] == "LACA (C)"
        assert len(record["members"]) == record["size"]
        assert len(record["scores"]) == len(record["members"])
        assert record["online_s"] > 0.0
        assert 0.0 <= record["precision"] <= 1.0

    def test_cluster_json_batch_one_line_per_seed(self, capsys):
        code = cli_main(
            ["cluster", "--dataset", "cora", "--scale", "0.1",
             "--seed", "0", "7", "23", "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["seed"] for record in records] == [0, 7, 23]
        for record in records:
            assert len(record["members"]) == record["size"]
            assert "scores" in record and "online_s" in record


class TestServeCLI:
    def test_serve_streams_json_results(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n7\n23\n"))
        code = cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                         "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [record["seed"] for record in records] == [0, 7, 23]
        for record in records:
            assert len(record["members"]) == record["size"]
            assert record["latency_s"] > 0.0

    def test_serve_queries_file_with_sizes_and_comments(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("# comment line\n0 10\n\n7 15  # trailing\n")
        code = cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                         "--queries", str(queries)])
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [(record["seed"], record["size"]) for record in records] == [
            (0, 10), (7, 15),
        ]

    def test_serve_with_worker_pool_matches_in_process(
        self, small_sbm, tmp_path, capsys
    ):
        """--workers N serves through N worker processes; members must be
        identical to the single-process service and the pool knobs reach
        the stats line."""
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n7 15\n")
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries)])
        assert code == 0
        inproc = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries),
                         "--workers", "2", "--max-pending", "128",
                         "--deadline-ms", "60000", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        pooled = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert [r["members"] for r in pooled] == [r["members"] for r in inproc]
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["workers"] == 2
        assert stats["max_pending"] == 128
        assert stats["shed"] == 0 and stats["deadline_misses"] == 0

    def test_serve_in_process_applies_max_pending(self, small_sbm, tmp_path):
        """Without --workers the admission bound still holds: the long
        coalescing window keeps the first query pending, so the second
        submission is shed."""
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n7 10\n23 10\n")
        with pytest.raises(PoolSaturated, match="max_pending=1"):
            cli_main(["serve", "--graph", str(graph_path),
                      "--queries", str(queries), "--max-pending", "1",
                      "--max-wait-ms", "2000"])

    def test_serve_in_process_applies_deadline(self, small_sbm, tmp_path):
        """Without --workers a query still queued past --deadline-ms is
        dropped instead of answered late."""
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n7 10\n")
        with pytest.raises(DeadlineExceeded):
            cli_main(["serve", "--graph", str(graph_path),
                      "--queries", str(queries), "--deadline-ms", "0.001"])

    def test_serve_round_trips_saved_model(self, small_sbm, tmp_path, capsys):
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        model_path = tmp_path / "model.npz"
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n")
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries),
                         "--save-model", str(model_path)])
        assert code == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert model_path.exists()
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--model", str(model_path),
                         "--queries", str(queries)])
        assert code == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert second["members"] == first["members"]

    def test_update_applies_jsonl_stream(self, small_sbm, tmp_path, capsys):
        import numpy as np

        from repro.graphs.io import load_graph

        graph_path = save_graph(small_sbm, tmp_path / "graph")
        updates = tmp_path / "deltas.jsonl"
        new_row = [float(x) for x in np.full(small_sbm.d, 0.3)]
        updates.write_text(
            "# comment\n"
            + json.dumps({"add_edges": [[0, 60]]}) + "\n"
            + json.dumps({
                "add_nodes": 1,
                "add_edges": [[small_sbm.n, 1], [small_sbm.n, 2]],
                "add_attributes": [new_row],
                "add_communities": [0],
            }) + "\n"
        )
        out_path = tmp_path / "updated.npz"
        code = cli_main([
            "update", "--graph", str(graph_path),
            "--updates", str(updates), "--out", str(out_path),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["epoch"] for record in records] == [1, 2]
        assert records[-1]["n"] == small_sbm.n + 1
        reloaded = load_graph(out_path)
        assert reloaded.epoch == 2
        assert reloaded.n == small_sbm.n + 1

    def test_update_refreshes_model_incrementally(
        self, small_sbm, tmp_path, capsys
    ):
        from repro.core.pipeline import LACA
        from repro.graphs.io import load_graph
        from repro.serving import load_model, save_model

        graph_path = save_graph(small_sbm, tmp_path / "graph")
        model_path = save_model(LACA(k=8).fit(small_sbm), tmp_path / "model")
        updates = tmp_path / "deltas.jsonl"
        updates.write_text(json.dumps({"add_edges": [[0, 60]]}) + "\n")
        out_graph = tmp_path / "g2.npz"
        out_model = tmp_path / "m2.npz"
        code = cli_main([
            "update", "--graph", str(graph_path), "--updates", str(updates),
            "--out", str(out_graph),
            "--model", str(model_path), "--save-model", str(out_model),
        ])
        assert code == 0
        assert "refreshed model to epoch 1" in capsys.readouterr().err
        head = load_graph(out_graph)
        refreshed = load_model(out_model, head)
        assert refreshed.graph.epoch == 1

    def test_update_rejects_bad_delta_naming_epoch(self, small_sbm, tmp_path):
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        updates = tmp_path / "deltas.jsonl"
        updates.write_text(json.dumps({"remove_edges": [[0, 0]]}) + "\n")
        with pytest.raises(SystemExit, match="self-loop"):
            cli_main(["update", "--graph", str(graph_path),
                      "--updates", str(updates)])

    def test_update_rejects_malformed_json(self, small_sbm, tmp_path):
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        updates = tmp_path / "deltas.jsonl"
        updates.write_text("{not json\n")
        with pytest.raises(SystemExit, match="line 1"):
            cli_main(["update", "--graph", str(graph_path),
                      "--updates", str(updates)])

    def test_serve_without_size_or_truth_fails(self, small_sbm, tmp_path):
        from repro.graphs.graph import AttributedGraph

        bare = AttributedGraph(adjacency=small_sbm.adjacency)
        graph_path = save_graph(bare, tmp_path / "bare")
        queries = tmp_path / "queries.txt"
        queries.write_text("0\n")
        with pytest.raises(SystemExit, match="--size"):
            cli_main(["serve", "--graph", str(graph_path),
                      "--queries", str(queries)])

    def test_serve_rejects_malformed_query_line(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("not-a-seed\n")
        with pytest.raises(SystemExit, match="line 1"):
            cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                      "--queries", str(queries)])

    def test_serve_rejects_out_of_range_seed_naming_line(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n999999\n-1 10\n")
        with pytest.raises(SystemExit, match="line 2: seed 999999"):
            cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                      "--queries", str(queries)])

    def test_serve_missing_queries_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read queries file"):
            cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                      "--queries", str(tmp_path / "typo.txt")])

    def test_serve_rejects_nonpositive_size(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("0 0\n")
        with pytest.raises(SystemExit, match="line 1.*positive"):
            cli_main(["serve", "--dataset", "cora", "--scale", "0.1",
                      "--queries", str(queries)])

    def test_serve_emits_trace_ids_and_trace_log(self, small_sbm, tmp_path, capsys):
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        # All queries are submitted up-front (they coalesce), so the
        # duplicate seed resolves from the engine batch, not the cache.
        queries.write_text("0 10\n7 15\n0 10\n")
        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries),
                         "--trace-log", str(trace_path)])
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        trace_ids = [record["trace_id"] for record in records]
        assert all(trace_ids) and len(set(trace_ids)) == 3
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        requests = [event for event in events if event["event"] == "request"]
        assert len(requests) == 3
        assert {event["path"] for event in requests} <= {"engine", "cache"}
        assert set(trace_ids) == {event["trace_id"] for event in requests}

    def test_serve_trace_sampling_thins_spans(self, small_sbm, tmp_path, capsys):
        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        queries.write_text("".join(f"{seed} 10\n" for seed in range(10)))
        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries),
                         "--trace-log", str(trace_path),
                         "--trace-sample", "0.5"])
        assert code == 0
        capsys.readouterr()
        requests = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if json.loads(line)["event"] == "request"
        ]
        assert len(requests) == 5  # deterministic: every 2nd span

    def test_serve_metrics_port_scrapeable_while_lingering(
        self, small_sbm, tmp_path, capsys, monkeypatch
    ):
        """--metrics-port 0 binds an ephemeral port, prints it to stderr,
        and --linger-s keeps /metrics + /stats up after the last answer."""
        import re
        import threading
        import urllib.request

        graph_path = save_graph(small_sbm, tmp_path / "graph")
        queries = tmp_path / "queries.txt"
        queries.write_text("0 10\n7 15\n")

        class _Stderr:
            def __init__(self):
                self.buf = ""
            def write(self, text):
                self.buf += text
            def flush(self):
                pass

        stderr = _Stderr()
        monkeypatch.setattr("sys.stderr", stderr)
        scraped = {}

        def scrape():
            import time
            port = None
            for _ in range(400):
                match = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                                  stderr.buf)
                if match:
                    port = int(match.group(1))
                    break
                time.sleep(0.025)
            if port is None:
                scraped["error"] = "metrics port never announced"
                return
            # Scrape inside the linger window, after results settle.
            time.sleep(0.8)
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5
                ) as response:
                    scraped["metrics"] = response.read().decode()
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=5
                ) as response:
                    scraped["stats"] = json.loads(response.read().decode())
            except Exception as error:  # surfaced by the assert below
                scraped["error"] = repr(error)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        code = cli_main(["serve", "--graph", str(graph_path),
                         "--queries", str(queries),
                         "--metrics-port", "0", "--linger-s", "2.0"])
        scraper.join()
        assert code == 0
        assert "error" not in scraped, scraped.get("error")
        metrics = scraped["metrics"]
        assert "# TYPE laca_requests_total counter" in metrics
        assert 'laca_requests_total{path="engine"} 2' in metrics
        assert "laca_kernel_selections_total{" in metrics
        assert "laca_touched_volume_count 2" in metrics
        assert scraped["stats"]["requests"] == 2
        assert "p50_queue_wait_s" in scraped["stats"]


def _mapped_segments(pid: int) -> set[str]:
    """Names of the ``psm_*`` shared-memory segments that process ``pid``
    and its children (the pool workers) have mapped.  Each thread lists
    the children it forked, so every ``task/*/children`` file is read."""
    pids = [pid]
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            pids += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            continue  # the thread exited
    names = set()
    for member in pids:
        try:
            maps = Path(f"/proc/{member}/maps").read_text()
        except OSError:
            continue  # raced an exit
        names.update(re.findall(r"/dev/shm/(psm_\w+)", maps))
    return names


@pytest.mark.skipif(
    not (Path("/dev/shm").is_dir() and Path("/proc/self/task").is_dir()),
    reason="no /dev/shm or /proc",
)
def test_serve_sigterm_closes_pool_and_unlinks_shared_memory(tmp_path):
    """SIGTERM to a lingering ``serve --workers 2`` exits promptly through
    the service's close, which unlinks every shared-memory segment it
    published.  Only the segments this serve process and its workers
    mapped are checked, so a pool of another process cannot fail it."""
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"{seed} 15\n" for seed in range(8)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dataset", "cora",
         "--scale", "0.2", "--workers", "2", "--linger-s", "30",
         "--queries", str(queries)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, start_new_session=True,
    )
    try:
        answers = [json.loads(proc.stdout.readline()) for _ in range(8)]
        assert [answer["seed"] for answer in answers] == list(range(8))
        mapped = _mapped_segments(proc.pid)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=10)
    finally:
        try:  # no orphaned pool worker outlives a failed run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
    assert code == 128 + signal.SIGTERM
    assert mapped, "the serve process and its workers mapped no psm_* segment"
    assert {name for name in mapped if (Path("/dev/shm") / name).exists()} == set()


def test_second_sigterm_takes_the_default_action():
    """The first SIGTERM unwinds serve through ``close()``; if that close
    wedges, a second one must still kill the process."""
    from repro.cli import _exit_on_signal

    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with pytest.raises(SystemExit) as exit_info:
            _exit_on_signal(signal.SIGTERM, None)
        assert exit_info.value.code == 128 + signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    finally:
        signal.signal(signal.SIGTERM, previous)


class TestExperimentsCLI:
    def test_list(self, capsys):
        assert experiments_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table05" in out and "fig06" in out

    def test_run_driver(self, capsys):
        assert experiments_main(["table03", "--scale", "0.1"]) == 0
        assert "dataset statistics" in capsys.readouterr().out

    def test_unknown_driver(self):
        with pytest.raises(SystemExit):
            experiments_main(["table99"])
