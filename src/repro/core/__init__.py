"""Core integration layer: system builder, experiment harness, results."""

from . import calibration
from .experiment import (
    FIO_STORES,
    measure_centaur_latencies,
    measure_contutto_latencies,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fio_matrix,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from .results import ResultTable
from .system import CardSpec, ContuttoSystem

__all__ = [
    "CardSpec",
    "ContuttoSystem",
    "FIO_STORES",
    "ResultTable",
    "calibration",
    "measure_centaur_latencies",
    "measure_contutto_latencies",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fio_matrix",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
]


def __getattr__(name: str):
    # Table 5's runner imports numpy and the accelerators; load it only
    # when asked for (PEP 562), so no other job pays for them
    if name == "run_table5":
        from .acceleration import run_table5

        return run_table5
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
