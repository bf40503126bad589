"""Shared benchmark helpers.

The ablation probes (``benchmarks/ablations``), the overhead benches and
the campaign-scaling and kernel-hotspot benches import these.  The paper's
tables and figures are asserted in tier-1
(``tests/core/test_experiments.py``) and regenerated by
``scripts/run_campaign.py --no-cache``.

Run:  pytest benchmarks --ignore=benchmarks/contutto --benchmark-disable
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
