"""Core integration layer: system builder, experiment harness, results."""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562): a job
#: that needs only ``ResultTable`` or Table 5's runner loads no system
#: stack, and only Table 5 loads numpy
_EXPORTS = {
    "CardSpec": ".system",
    "ContuttoSystem": ".system",
    "FIO_STORES": ".experiment",
    "ResultTable": ".results",
    "calibration": ".calibration",
    "measure_centaur_latencies": ".experiment",
    "measure_contutto_latencies": ".experiment",
    "run_fig6": ".experiment",
    "run_fig7": ".experiment",
    "run_fig8": ".experiment",
    "run_fio_matrix": ".experiment",
    "run_table1": ".experiment",
    "run_table2": ".experiment",
    "run_table3": ".experiment",
    "run_table4": ".experiment",
    "run_table5": ".acceleration",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
