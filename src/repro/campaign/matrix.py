"""Declarative scenario matrices: parameter grids that expand into jobs.

A :class:`ScenarioMatrix` is a list of scenarios, each an experiment name
plus per-axis value lists; :meth:`~ScenarioMatrix.expand` takes the cross
product of every scenario's axes and emits one :class:`CampaignJob` per
cell.  Example — the METICULOUS/EasyDRAM-style sensitivity sweep::

    matrix = ScenarioMatrix(base_seed=42)
    matrix.add("table3", samples=[8, 24, 96])
    matrix.add("fio", ios=[32, 128], iodepth=[1, 4, 16])
    jobs = matrix.expand()

Seeding
-------
Each job's seed is derived from ``base_seed`` and the job's identity via
:func:`repro.sim.rng.derive_seed` — the same platform-stable mix that
:meth:`Rng.fork` uses.  The seed depends only on ``(base_seed, job key)``:
never on expansion order, worker assignment, or how many other scenarios
the matrix holds, so a sweep's results are bit-identical whether it runs
serially, on 16 workers, or resumed across three crashes.  A scenario may
instead pin seeds explicitly with a ``seed=[...]`` axis (the paper matrix
pins ``seed=0``, the harness defaults).
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from ..sim.rng import derive_seed
from .registry import experiment_names, get_experiment


def canonical_kwargs(kwargs: Dict[str, object]) -> str:
    """A stable text form of a kwargs dict (sorted keys, JSON values)."""
    return json.dumps(kwargs, sort_keys=True, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class CampaignJob:
    """One schedulable unit: an experiment call with pinned kwargs + seed."""

    experiment: str
    kwargs: tuple                     # sorted (key, value) pairs — hashable
    seed: int

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)

    @property
    def job_id(self) -> str:
        """Stable human-readable identity, e.g. ``table3[samples=24]#s0``."""
        inner = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.experiment}[{inner}]#s{self.seed}"

    @staticmethod
    def make(experiment: str, kwargs: Dict[str, object], seed: int) -> "CampaignJob":
        # JSON matrices deliver list values (e.g. a rates axis); freeze
        # them so the job stays hashable and its identity canonical
        frozen = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in kwargs.items()
        }
        return CampaignJob(experiment, tuple(sorted(frozen.items())), seed)


@dataclass
class _Scenario:
    experiment: str
    axes: Dict[str, List[object]] = field(default_factory=dict)


class ScenarioMatrix:
    """A declarative grid of experiment configurations."""

    def __init__(self, base_seed: int = 0):
        self.base_seed = base_seed
        self._scenarios: List[_Scenario] = []

    # -- construction -------------------------------------------------------

    def add(self, experiment: str, **axes) -> "ScenarioMatrix":
        """Add one scenario; each axis is a value or a list of values.

        Unnamed axes fall back to the experiment's registry defaults.  An
        axis the experiment's runner does not take raises
        ConfigurationError here, not in every job (naming one imports the
        runner's module).  Returns ``self`` for chaining.
        """
        spec = get_experiment(experiment)
        unknown = sorted(set(axes) - set(spec.defaults) - {"seed"})
        if unknown:
            params = inspect.signature(spec.runner).parameters
            for key in unknown:
                if key not in params:
                    raise ConfigurationError(
                        f"{experiment}: its runner takes no axis {key!r} "
                        f"(it takes: {', '.join(params)})"
                    )
        merged: Dict[str, List[object]] = {
            k: [v] for k, v in spec.defaults.items()
        }
        for key, values in axes.items():
            if isinstance(values, (list, tuple)):
                values = list(values)
            else:
                values = [values]
            if not values:
                raise ConfigurationError(
                    f"{experiment}: axis {key!r} expanded to zero values"
                )
            merged[key] = values
        self._scenarios.append(_Scenario(spec.name, merged))
        return self

    @classmethod
    def paper(
        cls, only: Optional[Sequence[str]] = None, seed: int = 0
    ) -> "ScenarioMatrix":
        """The full paper regeneration: every experiment at its defaults.

        Seeds are pinned (not derived) to the harness default, so each
        table is the one its runner gives when called on its own.
        ``only`` filters by experiment name, preserving EXPERIMENTS.md
        order regardless of the order names are given in.
        """
        matrix = cls(base_seed=seed)
        selected = set(only) if only else None
        for name in experiment_names():
            if selected is None:
                # non-paper experiments (fault drills) run only when named
                # explicitly, keeping the paper campaign's output stable
                if not get_experiment(name).paper:
                    continue
            elif name not in selected:
                continue
            matrix.add(name, seed=seed)
        return matrix

    # -- expansion ----------------------------------------------------------

    def expand(self) -> List[CampaignJob]:
        """Cross-product every scenario's axes into seeded jobs.

        Duplicate (experiment, kwargs, seed) cells collapse to one job.
        """
        jobs: List[CampaignJob] = []
        seen = set()
        for scenario in self._scenarios:
            axes = dict(scenario.axes)
            pinned_seeds = axes.pop("seed", None)
            keys = sorted(axes)
            for combo in itertools.product(*(axes[k] for k in keys)):
                kwargs = dict(zip(keys, combo))
                seeds: Iterable[int]
                if pinned_seeds is not None:
                    seeds = pinned_seeds
                else:
                    key = f"{scenario.experiment}|{canonical_kwargs(kwargs)}"
                    seeds = [derive_seed(self.base_seed, key)]
                for seed in seeds:
                    job = CampaignJob.make(scenario.experiment, kwargs, seed)
                    if job not in seen:
                        seen.add(job)
                        jobs.append(job)
        return jobs

    def __len__(self) -> int:
        return len(self.expand())


def apply_fault_plan(
    jobs: Sequence[CampaignJob], plan_json: str
) -> List[CampaignJob]:
    """Thread a canonical fault-plan JSON into every fault-capable job.

    The plan rides in job kwargs as a string (hashable, cache-key and
    seed-derivation stable); experiments that don't support faults are
    left untouched.
    """
    out: List[CampaignJob] = []
    for job in jobs:
        if get_experiment(job.experiment).supports_faults:
            kwargs = dict(job.kwargs_dict)
            kwargs["faults"] = plan_json
            job = CampaignJob.make(job.experiment, kwargs, job.seed)
        out.append(job)
    return out
