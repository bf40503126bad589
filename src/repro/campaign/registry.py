"""The experiment registry: the campaign engine's view of the harness.

One :class:`ExperimentSpec` per paper table/figure, in EXPERIMENTS.md
section order.  This is the single source of truth for "what can a
campaign run": ``scripts/run_campaign.py``, ``scripts/
regenerate_experiments.py``, and ``scripts/trace_experiment.py`` all
resolve names through it, and worker processes look experiments up here
by name (a string crosses the process boundary; a closure would not).

Every runner accepts ``seed=`` (threaded through to the underlying
system builds) plus its own size knob, and returns one
:class:`~repro.core.results.ResultTable` — except ``fio``, which
returns the ``(fig9, fig10)`` pair.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: name, runner, default kwargs.

    The runner is named by ``"module:function"`` and imported on first
    use, so listing or validating experiments imports no simulation code
    and a job imports only its own runner's module.
    """

    name: str
    #: ``"repro.core.experiment:run_table3"`` — where :attr:`runner` lives
    target: str
    defaults: Dict[str, object] = field(default_factory=dict)
    #: hidden specs (self-test fixtures) are excluded from CLIs and
    #: from the paper scenario matrix
    hidden: bool = False
    #: part of the paper reproduction set (``ScenarioMatrix.paper``);
    #: fault/resilience experiments opt out so the paper campaign's
    #: byte-identical artifacts stay stable
    paper: bool = True
    #: accepts a ``faults=`` kwarg (a canonical plan JSON string) —
    #: ``run_campaign.py --faults`` only threads plans into these
    supports_faults: bool = False
    #: the int kwarg in ``defaults`` that sets how much work a run does,
    #: which the CLIs' ``--samples`` replaces (None: no such knob)
    size_knob: Optional[str] = None

    @property
    def runner(self) -> Callable:
        """The runner callable, importing its module if need be."""
        module, _, name = self.target.partition(":")
        return getattr(importlib.import_module(module), name)


#: registration order mirrors EXPERIMENTS.md section order
_SPECS: List[ExperimentSpec] = [
    ExperimentSpec("table1", "repro.core.experiment:run_table1", {}),
    ExperimentSpec("table2", "repro.core.experiment:run_table2", {"samples": 24},
                   size_knob="samples"),
    ExperimentSpec("fig6", "repro.core.experiment:run_fig6", {"samples": 24},
                   size_knob="samples"),
    ExperimentSpec("table3", "repro.core.experiment:run_table3", {"samples": 24},
                   size_knob="samples"),
    ExperimentSpec("fig7", "repro.core.experiment:run_fig7", {"samples": 24},
                   size_knob="samples"),
    ExperimentSpec("fig8", "repro.core.experiment:run_fig8", {}),
    ExperimentSpec("table4", "repro.core.experiment:run_table4", {"writes": 24},
                   size_knob="writes"),
    ExperimentSpec("fio", "repro.core.experiment:run_fio_matrix", {"ios": 32},
                   size_knob="ios"),
    ExperimentSpec("table5", "repro.core.acceleration:run_table5", {"size_mib": 16},
                   size_knob="size_mib"),
    # fault & resilience experiments (docs/faults.md)
    ExperimentSpec("ber_sweep", "repro.faults.experiments:run_ber_sweep",
                   {"samples": 8}, paper=False, supports_faults=True,
                   size_knob="samples"),
    ExperimentSpec("nvdimm_drill", "repro.faults.experiments:run_nvdimm_drill",
                   {"lines": 16}, paper=False, supports_faults=True,
                   size_knob="lines"),
    ExperimentSpec("storage_drill", "repro.faults.experiments:run_storage_drill",
                   {"writes": 24}, paper=False, supports_faults=True,
                   size_knob="writes"),
    # hybrid-memory tiering: migration policy x replay workload
    # (docs/hybrid.md); swept as campaign axes, not part of the paper set
    ExperimentSpec("tiered_replay", "repro.hybrid.experiments:run_tiered_replay",
                   {"policy": "clock", "workload": "graph", "ops": 96,
                    "depth": 4},
                   paper=False, supports_faults=True, size_knob="ops"),
    # service calibration (docs/service.md) — the one job of a
    # run_service.py invocation; every repetition draws its demands from
    # the profiles in its table
    ExperimentSpec(
        "service_calibrate", "repro.service.classes:run_service_calibrate",
        {"classes": "", "calib_samples": 24},
        hidden=True, paper=False, supports_faults=True,
        size_knob="calib_samples",
    ),
    # autotuner trial worker (docs/tuning.md) — scheduled by the tune
    # driver, one job per (config, rung); hidden because a lone trial is
    # meaningless without the search that proposed it
    ExperimentSpec(
        "tune_trial", "repro.tune.trial:run_tune_trial",
        {"config": "{}", "workload": "mem_read", "samples": 32, "depth": 4},
        hidden=True, paper=False, supports_faults=True, size_knob="samples",
    ),
]

#: aliases: the fio matrix renders both Figure 9 and Figure 10
ALIASES = {"fig9": "fio", "fig10": "fio"}


# -- self-test fixtures -------------------------------------------------------
#
# Failure-path tests need an experiment that misbehaves on demand, and it
# must be importable by name inside a worker process — a test-local
# function cannot cross the pool boundary.  Hidden from every CLI.


def _selftest_echo(value: int = 1, seed: int = 0):
    from ..core.results import ResultTable

    table = ResultTable("selftest echo", ["value", "seed"])
    table.add_row(value, seed)
    return table


def _selftest_fail(fail_always: bool = True, seed: int = 0):
    raise RuntimeError(f"selftest failure (seed={seed})")


def _selftest_sleep(seconds: float = 5.0, seed: int = 0):
    time.sleep(seconds)
    return _selftest_echo(value=0, seed=seed)


_SPECS += [
    ExperimentSpec("_selftest_echo", "repro.campaign.registry:_selftest_echo",
                   {"value": 1}, hidden=True),
    ExperimentSpec("_selftest_fail", "repro.campaign.registry:_selftest_fail",
                   {}, hidden=True),
    ExperimentSpec("_selftest_sleep", "repro.campaign.registry:_selftest_sleep",
                   {"seconds": 5.0}, hidden=True),
]

REGISTRY: Dict[str, ExperimentSpec] = {spec.name: spec for spec in _SPECS}


def experiment_names(include_hidden: bool = False) -> List[str]:
    """Public experiment names in EXPERIMENTS.md order."""
    return [s.name for s in _SPECS if include_hidden or not s.hidden]


def get_experiment(name: str) -> ExperimentSpec:
    """Resolve a name (or alias) to its spec; raises ConfigurationError."""
    canonical = ALIASES.get(name, name)
    spec = REGISTRY.get(canonical)
    if spec is None:
        known = ", ".join(experiment_names())
        raise ConfigurationError(f"unknown experiment {name!r} (known: {known})")
    return spec
