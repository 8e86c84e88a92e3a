"""Timeline rendering."""

from repro.analysis.timeline import render_spin_timeline
from repro.qlog.recorder import TraceRecorder


def recorder_with_signal():
    recorder = TraceRecorder()
    values = [False, False, True, True, False]
    for pn, value in enumerate(values):
        recorder.on_packet_received(pn * 30.0, "1RTT", pn, value, 100)
    return recorder


class TestTimeline:
    def test_renders_edges_and_samples(self):
        text = render_spin_timeline(recorder_with_signal())
        assert "edges: 2" in text
        assert text.count("<- edge") == 2
        assert "sample 60.0 ms" in text
        assert "mean spin RTT estimate: 60.0 ms" in text

    def test_truncation_marks_gap(self):
        recorder = TraceRecorder()
        for pn in range(100):
            recorder.on_packet_received(pn * 1.0, "1RTT", pn, pn % 7 == 0, 100)
        text = render_spin_timeline(recorder, max_packets=20)
        assert "..." in text
        assert text.count("t=") <= 21

    def test_empty_connection(self):
        text = render_spin_timeline(TraceRecorder())
        assert "received 1-RTT packets: 0" in text

