"""The ``repro-obs`` CLI: summarising a telemetry JSONL file."""

import json

from repro.obs import cli
from repro.obs.telemetry import telemetry_to, emit, set_worker_name


def write_spans(path):
    set_worker_name("w1")
    with telemetry_to(str(path)):
        emit("cell_execute", cell_id="a/N=25", replicate=0, kind="stationary",
             duration=0.25)
        emit("cell_execute", cell_id="a/N=100", replicate=0, kind="stationary",
             duration=0.75)
        set_worker_name("w2")
        emit("cell_execute", cell_id="a/N=300", replicate=0, kind="stationary",
             duration=0.5)
        emit("sweep", executor="dist", workers=2, cells=3, duration=1.1)
        emit("worker_join", peer="w2")
    set_worker_name(None)


class TestSummarize:
    def test_span_and_worker_tables(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        write_spans(path)
        assert cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        # span summary: every span name, with stats for the timed ones
        assert "cell_execute" in out
        assert "sweep" in out
        assert "worker_join" in out
        # worker summary: per-worker cell_execute breakdown
        assert "w1" in out
        assert "w2" in out
        assert "1.500" in out  # total cell_execute seconds

    def test_empty_file_reports_no_spans(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli.main([str(path)]) == 0
        assert "no telemetry spans" in capsys.readouterr().out

    def test_missing_file_exits_nonzero_with_a_message(self, tmp_path, capsys):
        assert cli.main([str(tmp_path / "absent.jsonl")]) == 1
        assert "repro-obs" in capsys.readouterr().err

    def test_malformed_lines_are_skipped_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        records = [
            json.dumps({"span": "cell_execute", "worker": "w", "ts": 1.0,
                        "duration": 0.5}),
            '{"span": "cell_execute", "worker": "w", "ts": 2.0, "dur',  # torn
            json.dumps([1, 2, 3]),  # valid JSON, not a record
        ]
        path.write_text("\n".join(records) + "\n")
        assert cli.main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "cell_execute" in captured.out
        assert "malformed" in captured.err

    def test_read_spans_counts_malformed_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"span":"a"}\nnot json\n\n')
        records, malformed = cli.read_spans(str(path))
        assert [r["span"] for r in records] == ["a"]
        assert malformed == 1

    def test_summarize_handles_spans_without_durations(self):
        text = cli.summarize([{"span": "worker_join", "peer": "w"}])
        assert "worker_join" in text
        assert "-" in text
