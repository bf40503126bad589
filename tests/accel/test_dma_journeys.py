"""Accelerator DMA journeys: pace/transfer partition with zero residual."""

from repro.core.acceleration import run_table5
from repro.telemetry import TraceSession
from repro.telemetry.attribution import QUEUE_STAGES, STAGE_ORDER


class TestDmaJourneys:
    def test_accel_stages_are_registered(self):
        assert "accel.pace" in STAGE_ORDER
        assert "accel.dma" in STAGE_ORDER
        assert "accel.pace" in QUEUE_STAGES
        assert "accel.dma" not in QUEUE_STAGES

    def test_table5_dma_journeys_attribute_fully(self):
        with TraceSession(spans=False) as session:
            run_table5(size_mib=1)
        breakdown = session.breakdown()
        scenarios = set(breakdown.scenarios())
        assert {"accel:memcopy", "accel:minmax", "accel:fft"} <= scenarios
        # the pace/dma partition tiles every DMA journey: zero residual
        assert breakdown.check() == []
        for scenario in ("accel:memcopy", "accel:minmax", "accel:fft"):
            stages = {row["stage"] for row in breakdown.stage_table(scenario)}
            assert stages <= {"accel.pace", "accel.dma"}
            assert "accel.dma" in stages
