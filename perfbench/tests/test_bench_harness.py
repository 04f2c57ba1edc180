"""Tests of the benchmark's statistics, span and accounting helpers."""

import time
from types import SimpleNamespace

import pytest

from harness import (
    SpanRecorder,
    Tally,
    cost_problem,
    covered,
    error_problem,
    geometric_mean,
    mismatch_problem,
    percentile,
    samples_beyond,
    self_time_by_name,
    self_times,
    whole_passes,
)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100

    def test_order_of_input_is_irrelevant(self):
        assert percentile([5, 1, 4, 2, 3], 0.5) == 3

    def test_small_samples(self):
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1, 2], 0.5) == 1
        # 34 samples: the p99 is the maximum
        assert percentile(list(range(34)), 0.99) == 33

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_share_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], q)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_samples_beyond_the_tail(self):
        assert samples_beyond(1000, 0.99) == 10
        assert samples_beyond(1200, 0.99) == 12
        assert samples_beyond(34, 0.99) == 0
        assert samples_beyond(100, 0.50) == 50

    def test_at_least_one_whole_pass(self):
        assert whole_passes(0.0, lambda number: number) == [0]

    def test_passes_are_numbered_until_the_window_is_full(self):
        passes = whole_passes(0.3, lambda number: (time.sleep(0.01), number)[1])
        assert passes == list(range(len(passes)))
        assert 2 <= len(passes) <= 30

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean(x for x in [1.0, 1.0, 1.0]) == 1.0


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered([]) == 0.0
        assert covered([(1, 3), (2, 5)]) == 4
        assert covered([(0, 1), (2, 3), (2.5, 2.75)]) == 2

    def test_self_time_is_span_minus_children(self):
        spans = [
            {"id": 0, "name": "request", "start": 0.0, "end": 10.0, "parent": None},
            {"id": 1, "name": "parse", "start": 1.0, "end": 3.0, "parent": 0},
            {"id": 2, "name": "bind", "start": 2.0, "end": 5.0, "parent": 0},
            # sticks out of its parent: only the inside part counts
            {"id": 3, "name": "optimize", "start": 8.0, "end": 12.0, "parent": 0},
            {"id": 4, "name": "explore", "start": 9.0, "end": 11.0, "parent": 3},
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10 - 4 - 2)
        assert own[1] == pytest.approx(2)
        assert own[3] == pytest.approx(4 - 2)
        assert own[4] == pytest.approx(2)
        by_name = self_time_by_name(spans)
        assert by_name["request"] == pytest.approx((10.0, 4.0))

    def test_recorder_nests_live_spans(self):
        recorder = SpanRecorder()
        with recorder.span("request", request=7) as root:
            with recorder.span("sql.parse", root.id, 7) as child:
                pass
        parent, inner = recorder.spans
        assert inner["parent"] == parent["id"] == root.id
        assert inner["request"] == 7
        assert parent["start"] <= inner["start"] <= inner["end"] <= parent["end"]
        assert child.elapsed == pytest.approx(inner["end"] - inner["start"])

    def test_disabled_recorder_keeps_nothing_but_times(self):
        recorder = SpanRecorder(enabled=False)
        with recorder.span("request") as span:
            pass
        assert recorder.spans == []
        assert span.elapsed >= 0.0

    def test_imported_tree_is_laid_out_sequentially(self):
        leaf = SimpleNamespace(name="explore", elapsed_s=2.0, children=[])
        other = SimpleNamespace(name="fused", elapsed_s=3.0, children=[])
        root = SimpleNamespace(name="optimize", elapsed_s=6.0, children=[leaf, other])
        recorder = SpanRecorder()
        recorder.add_tree(root, 100.0, None, "r")
        spans = {s["name"]: s for s in recorder.spans}
        assert (spans["explore"]["start"], spans["explore"]["end"]) == (100.0, 102.0)
        assert (spans["fused"]["start"], spans["fused"]["end"]) == (102.0, 105.0)
        assert self_times(recorder.spans)[spans["optimize"]["id"]] == pytest.approx(1.0)

    def test_dump_writes_spans_and_self_times(self, tmp_path):
        import json

        recorder = SpanRecorder()
        recorder.add("request", 0.0, 2.0)
        recorder.add("parse", 0.5, 1.0, parent=0)
        path = tmp_path / "spans.json"
        recorder.dump(path)
        data = json.loads(path.read_text())
        assert len(data["spans"]) == 2
        assert data["by_name"]["request"]["self_s"] == pytest.approx(1.5)


class TestTally:
    def test_passing_checks_are_not_failures(self):
        tally = Tally()
        assert tally.record(None, cost_problem("q", 1.0, 1.0))
        assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)

    def test_one_operation_fails_once_whatever_its_problems(self):
        tally = Tally()
        tally.record(cost_problem("q", 2.0, 1.0), mismatch_problem("n", 1, 2))
        assert (tally.attempted, tally.failed) == (1, 1)

    def test_cost_within_float_noise_passes(self):
        assert cost_problem("q", 156.56 * (1 + 1e-12), 156.56) is None
        assert "pinned" in cost_problem("q", 156.57, 156.56)

    def test_error_problem_names_the_exception(self):
        assert error_problem("q", KeyError("x")) == "q: KeyError: 'x'"

    def test_empty_tally(self):
        assert Tally().error_rate == 0.0
