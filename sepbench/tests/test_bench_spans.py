"""Self-time arithmetic and the span recorder, on synthetic spans."""

import _paths  # noqa: F401
import pytest

from spans import SpanRecorder, outermost, percentile, self_times, summarize


def test_self_time_subtracts_children_once_and_clips_them():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap; [8, 12] overhangs.
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 3.0, 5.0, 12.0]
    parents = [-1, 0, 0, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1:] == pytest.approx([2.0, 3.0, 4.0])


def test_grandchildren_count_against_their_parent_only():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 6.0, 4.0]
    parents = [-1, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 3.0, 2.0])


def test_inclusive_time_counts_nested_same_name_spans_once():
    names = ["f", "f", "g"]
    starts, ends, parents = [0.0, 1.0, 5.0], [10.0, 4.0, 6.0], [-1, 0, 0]
    assert outermost(names, parents) == [True, False, True]
    table = summarize(names, starts, ends, parents)
    assert table["f"]["calls"] == 2
    assert table["f"]["s"] == pytest.approx(10.0)
    assert table["f"]["self_s"] == pytest.approx((10.0 - 4.0) + 3.0)
    assert table["g"]["durations"] == pytest.approx([1.0])


def test_percentile_interpolates_and_handles_no_samples():
    assert percentile([], 50.0) == 0.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)
    assert percentile([1.0, 2.0], 99.0) == pytest.approx(1.99)


def test_recorder_links_parents_and_runs():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2, new_run=True)
    counted = recorder.counted("tick", lambda: None)
    assert outer(1) == 4
    assert outer(2) == 6
    counted()
    assert recorder.names == ["outer", "inner", "outer", "inner"]
    assert recorder.parents == [-1, 0, -1, 2]
    assert recorder.runs == [0, 0, 1, 1]
    assert recorder.counts["tick"] == 1
    assert all(e >= s for s, e in zip(recorder.starts, recorder.ends))


def test_recorder_closes_spans_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = recorder.wrap("after", lambda: None)
    after()
    assert recorder.parents == [-1, -1]
    assert recorder.ends[0] >= recorder.starts[0]
