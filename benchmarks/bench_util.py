"""Shared benchmark helpers.

Every benchmark regenerates one paper table/figure through the experiment
harness, records the measured values as ``extra_info`` (so they appear in
``pytest-benchmark``'s JSON output), asserts the paper's qualitative
claims, and prints the full table.

Run:  pytest benchmarks/ --benchmark-only -s
"""

import os
import platform


def host_facts() -> dict:
    """The host a ``repro.bench/v1`` record was measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The experiments are deterministic discrete-event simulations — repeated
    rounds would measure the same thing — so one round with one iteration
    is both faster and honest.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
