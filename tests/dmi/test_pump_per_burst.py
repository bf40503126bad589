"""One transmit pump per enqueue burst, on whole experiments.

``HostCommandLayer.issue`` queues a command's frames as one burst, and
``BufferCommandLayer.respond`` queues its response the same way, so a
clean run schedules exactly two ``FrameEndpoint._pump`` events per
command: one at the host, one at the buffer.  The frames on the wire
must not change.
"""

import pytest

from repro.core.experiment import run_fio_matrix, run_table3
from repro.sim.profile import profiled
from repro.telemetry import TraceSession

CASES = {
    # experiment: (run, pumps, frames_sent)
    "fio[ios=1]": (lambda: run_fio_matrix(ios=1), 520, 2_504),
    "table3[samples=4]": (lambda: run_table3(samples=4), 48, 240),
}


@pytest.mark.parametrize("case", list(CASES))
def test_two_pumps_per_command_and_the_same_frames(case):
    run, pumps, frames_sent = CASES[case]
    with TraceSession(spans=False) as session, profiled() as prof:
        run()
    metrics = session.registry.snapshot()
    counts = prof.counts_by_key()
    assert counts["FrameEndpoint._pump"] == 2 * metrics["dmi.commands_issued"] == pumps
    assert metrics["dmi.frames_sent"] == frames_sent
    assert metrics["kernel.events"] == prof.events
