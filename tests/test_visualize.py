"""Tests for the Figure 2 timeline visualization."""

import pytest

from repro.core.analysis.visualize import busiest_window, render_timeline
from repro.core.unify.jframe import JFrame, JFrameKind
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_data
from repro.jtrace.records import RecordKind, TraceRecord

SRC = MacAddress.parse("00:0c:0c:00:00:01")
DST = MacAddress.parse("00:0a:0a:00:00:01")


def jframe_at(ts, radio_ids, kind=RecordKind.VALID):
    frame = make_data(SRC, DST, DST, seq=1, body=b"x")
    records = [
        TraceRecord(
            radio_id=radio_id, timestamp_us=ts, kind=kind, channel=1,
            rate_mbps=11.0, rssi_dbm=-60.0, frame_len=10, fcs=0,
            snap=b"abcdef" if kind is not RecordKind.PHY_ERROR else b"",
            duration_us=100,
        )
        for radio_id in radio_ids
    ]
    return JFrame(
        timestamp_us=ts,
        kind=JFrameKind.VALID if kind is RecordKind.VALID else JFrameKind.PHY_ERROR,
        channel=1, radio_ids=list(radio_ids),
        universal_us=[float(ts)] * len(records), records=records,
        frame=frame, duration_us=100,
    )


class TestRenderTimeline:
    def test_rows_per_radio(self):
        frames = [jframe_at(1000, [0, 1, 2])]
        view = render_timeline(frames, 0, 2000, columns=20)
        assert len(view.rows) == 3
        assert all("#" in row for row in view.rows)

    def test_simultaneous_receptions_share_column(self):
        frames = [jframe_at(1000, [0, 1])]
        view = render_timeline(frames, 0, 2000, columns=40)
        col0 = view.rows[0].index("#")
        col1 = view.rows[1].index("#")
        assert col0 == col1

    def test_markers_by_kind(self):
        frames = [
            jframe_at(500, [0]),
            jframe_at(1500, [1], kind=RecordKind.PHY_ERROR),
        ]
        view = render_timeline(frames, 0, 2000, columns=40)
        text = str(view)
        assert "#" in text and "." in text and "legend" in text

    def test_window_filtering(self):
        frames = [jframe_at(1000, [0]), jframe_at(9000, [0])]
        view = render_timeline(frames, 0, 2000, columns=20)
        assert "".join(view.rows).count("#") == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            render_timeline([], 100, 100)

    def test_radio_cap(self):
        frames = [jframe_at(1000, list(range(50)))]
        view = render_timeline(frames, 0, 2000, max_radios=10)
        assert len(view.rows) == 10

    def test_explicit_radio_order(self):
        frames = [jframe_at(1000, [3, 7])]
        view = render_timeline(frames, 0, 2000, radios=[7, 3, 99])
        assert view.rows[0].startswith(" r7") or view.rows[0].startswith("r7")
        assert len(view.rows) == 3  # radio 99 renders an empty row


class TestBusiestWindow:
    def test_empty(self):
        assert busiest_window([], width_us=100) == (0, 100)

    def test_finds_cluster(self):
        sparse = [jframe_at(t, [0]) for t in (0, 100_000)]
        cluster = [jframe_at(50_000 + i * 10, [0, 1, 2]) for i in range(5)]
        frames = sorted(sparse + cluster, key=lambda jf: jf.timestamp_us)
        start, end = busiest_window(frames, width_us=1_000)
        assert 49_000 <= start <= 51_000
        assert end - start == 1_000
