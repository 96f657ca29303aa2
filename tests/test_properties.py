"""Cross-cutting property-based tests on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import DST, SRC, record_for
from repro.core.sync.bootstrap import bootstrap_synchronization
from repro.core.sync.skew import ClockTrack
from repro.dot11.frame import make_data
from repro.jtrace.io import RadioTrace
from repro.monitor.clock import RadioClock
from repro.sim.scenario import ClockConfig


class TestClockProperties:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        times=st.lists(
            st.integers(min_value=0, max_value=30_000_000),
            min_size=2, max_size=40,
        ),
    )
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    def test_radio_clock_monotone(self, seed, times):
        clock = RadioClock(np.random.default_rng(seed), ClockConfig())
        previous = None
        for t in sorted(times):
            local = clock.local_time_us(t)
            if previous is not None:
                assert local >= previous[1] or t == previous[0]
            previous = (t, local)

    @given(
        offset=st.floats(min_value=-1e6, max_value=1e6),
        local=st.floats(min_value=0, max_value=1e7),
        universal=st.floats(min_value=0, max_value=1e7),
    )
    @settings(max_examples=100)
    def test_resync_fixes_the_anchor_point(self, offset, local, universal):
        track = ClockTrack(radio_id=0, offset_us=offset)
        track.resync(local, universal)
        assert abs(track.universal_us(local) - universal) < 1e-6

    @given(
        skew_ppm=st.floats(min_value=-100, max_value=100),
        t1=st.floats(min_value=0, max_value=1e6),
        t2=st.floats(min_value=0, max_value=1e6),
    )
    @settings(max_examples=100)
    def test_universal_mapping_is_order_preserving(self, skew_ppm, t1, t2):
        track = ClockTrack(radio_id=0, offset_us=0.0, skew_ppm=skew_ppm)
        lo, hi = sorted((t1, t2))
        assert track.universal_us(lo) <= track.universal_us(hi)


class TestBootstrapProperties:
    @given(
        offsets=st.lists(
            st.integers(min_value=-200_000, max_value=200_000),
            min_size=2, max_size=6,
        ),
        n_frames=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_offsets_recover_relative_clock_error(self, offsets, n_frames):
        """With every radio hearing every reference frame, bootstrap must
        recover all pairwise clock offsets exactly."""
        frames = [
            make_data(SRC, DST, DST, seq=i, body=bytes([i]) * 4)
            for i in range(n_frames)
        ]
        traces = []
        for radio_id, offset in enumerate(offsets):
            records = [
                record_for(frame, radio_id, 10_000 * (i + 1) + offset)
                for i, frame in enumerate(frames)
            ]
            traces.append(RadioTrace(radio_id, 1, records))
        result = bootstrap_synchronization(traces)
        assert result.fully_synchronized
        base = result.offsets_us[0] + offsets[0]
        for radio_id, offset in enumerate(offsets):
            # universal = local + T  =>  T_r + offset_r constant.
            assert result.offsets_us[radio_id] + offset == base


class TestUnifierProperties:
    @given(
        n_radios=st.integers(min_value=1, max_value=6),
        n_frames=st.integers(min_value=1, max_value=15),
        jitter=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_of_records(self, n_radios, n_frames, jitter):
        """Every input record lands in exactly one jframe."""
        from repro.core.sync.bootstrap import BootstrapResult
        from repro.core.unify.unifier import Unifier

        rng = np.random.default_rng(n_radios * 100 + n_frames)
        frames = [
            make_data(SRC, DST, DST, seq=i % 4096, body=bytes([i % 251]) * 6)
            for i in range(n_frames)
        ]
        traces = []
        total = 0
        for radio_id in range(n_radios):
            records = []
            for i, frame in enumerate(frames):
                if rng.random() < 0.3:
                    continue  # this radio missed the frame
                ts = 5_000 * (i + 1) + int(rng.integers(0, jitter + 1))
                records.append(record_for(frame, radio_id, ts))
            total += len(records)
            traces.append(RadioTrace(radio_id, 1, records))
        bootstrap = BootstrapResult(
            offsets_us={r: 0.0 for r in range(n_radios)}
        )
        result = Unifier().unify(traces, bootstrap)
        assert result.stats.instances_unified == total
        assert sum(jf.n_instances for jf in result.jframes) == total
        # No jframe contains the same radio twice.
        for jf in result.jframes:
            radios = jf.radios
            assert len(radios) == len(set(radios))

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_jframes_sorted(self, seed):
        from repro.core.sync.bootstrap import BootstrapResult
        from repro.core.unify.unifier import Unifier

        rng = np.random.default_rng(seed)
        records = []
        for i in range(30):
            frame = make_data(SRC, DST, DST, seq=i % 4096, body=bytes([i]) * 3)
            records.append(
                record_for(frame, 0, int(rng.integers(0, 1_000_000)))
            )
        trace = RadioTrace(0, 1, records).sorted_by_local_time()
        result = Unifier().unify([trace], BootstrapResult(offsets_us={0: 0.0}))
        stamps = [jf.timestamp_us for jf in result.jframes]
        assert stamps == sorted(stamps)
