"""The declarative ``repro.suite/v1`` spec: one file, one named run.

A suite bundles what previously took several CLI invocations — campaign
matrices, fault plans, arrival schedules, tune specs — into a single
JSON document that one ``scripts/run_suite.py`` call executes through
the campaign engine and folds into one report.  Example::

    {
      "schema": "repro.suite/v1",
      "name": "nightly",
      "seed": 0,
      "campaigns": [
        {"name": "paper", "only": ["table1", "table3"]},
        {"name": "sweep",
         "scenarios": [{"experiment": "table3", "axes": {"samples": [8, 16]}}],
         "faults": "faultplans/ber.json"}
      ],
      "services": [
        {"name": "slo", "schedule": "schedules/slo_mix.json",
         "repetitions": 2, "calib_samples": 8}
      ],
      "tunes": [
        {"name": "buffer", "spec": "tunespecs/buffer_latency.json"}
      ],
      "kernel_profile": {"experiment": "table3", "axes": {"samples": 8}}
    }

``schedule``/``spec``/``faults`` values may be inline objects or paths;
paths resolve relative to the suite file, so a spec directory is
relocatable.  Section entry names become artifact directory names
(``campaign-paper/``, ``service-slo/``, ``tune-buffer/``) and must be
unique within their section.

``kernel_profile`` controls the sim-kernel hotspot pass: omit it for
the default (profile the suite's first campaign scenario, or a small
``table3`` when there are no campaigns), set it to ``false`` to skip
profiling, or name an experiment explicitly.  The profile's wall times
are never part of ``report.json`` — see :mod:`repro.report.summary`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..campaign import ALIASES, ScenarioMatrix, experiment_names
from ..errors import ConfigurationError
from ..service import ArrivalSchedule
from ..tune import TuneSpec
from .artifacts import load_fault_plan

#: the schema identifier a suite spec must carry
SUITE_SCHEMA = "repro.suite/v1"

_ENTRY_NAME_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


def _check_entry_name(section: str, name) -> str:
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"{section} entry needs a name")
    if set(name.lower()) - _ENTRY_NAME_OK or name != name.lower():
        raise ConfigurationError(
            f"{section} entry {name!r}: names are lowercase "
            "letters/digits/_/- (they become directory names)"
        )
    return name


def _load_inline_or_path(value, base_dir: Optional[Path], what: str) -> Tuple[dict, Optional[Path]]:
    """An inline object, or a JSON file path resolved against the spec."""
    if isinstance(value, dict):
        return value, None
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read {what} {value!r}: {exc}") from exc
        try:
            loaded = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"{what} {value!r} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"{what} {value!r} must be a JSON object")
        return loaded, path
    raise ConfigurationError(f"{what} must be an inline object or a path string")


def _load_faults(value, base_dir: Optional[Path]) -> Optional[str]:
    """A fault plan to its canonical JSON string (inline or path)."""
    if value is None:
        return None
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return load_fault_plan(path)
    if isinstance(value, dict):
        from ..faults import FaultPlan  # local: faults imports telemetry too

        return FaultPlan.from_json(json.dumps(value)).to_json()
    raise ConfigurationError("faults must be an inline plan object or a path string")


@dataclass(frozen=True)
class CampaignEntry:
    """One campaign: a paper subset or an explicit scenario matrix."""

    name: str
    only: Optional[Tuple[str, ...]] = None
    scenarios: Tuple[dict, ...] = ()
    faults: Optional[str] = None

    def matrix(self, seed: int) -> ScenarioMatrix:
        """Expandable matrix for this entry under the suite seed."""
        if self.scenarios:
            matrix = ScenarioMatrix(base_seed=seed)
            for scenario in self.scenarios:
                matrix.add(scenario["experiment"], **scenario.get("axes", {}))
            return matrix
        return ScenarioMatrix.paper(only=list(self.only) if self.only else None,
                                    seed=seed)


@dataclass(frozen=True)
class ServiceEntry:
    """One open-loop service run."""

    name: str
    schedule: ArrivalSchedule
    repetitions: int = 1
    calib_samples: int = 24
    faults: Optional[str] = None


@dataclass(frozen=True)
class TuneEntry:
    """One tuning search."""

    name: str
    spec: TuneSpec
    faults: Optional[str] = None


@dataclass(frozen=True)
class SuiteSpec:
    """A validated suite: everything one report run needs."""

    name: str
    seed: int = 0
    campaigns: Tuple[CampaignEntry, ...] = ()
    services: Tuple[ServiceEntry, ...] = ()
    tunes: Tuple[TuneEntry, ...] = ()
    #: ``None`` → default pass, ``False`` → disabled, dict → explicit job
    kernel_profile: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("suite needs a name")
        if not (self.campaigns or self.services or self.tunes):
            raise ConfigurationError(
                "suite declares nothing to run (campaigns/services/tunes)"
            )

    def profile_job(self) -> Optional[Tuple[str, Dict, int]]:
        """The ``(experiment, kwargs, seed)`` the kernel-profile pass runs.

        ``None`` when profiling is disabled.  The default is the first
        job of the first campaign (the suite's own workload profiles the
        kernel), falling back to a small ``table3`` when the suite has
        no campaigns.
        """
        if self.kernel_profile is False:
            return None
        if isinstance(self.kernel_profile, dict):
            experiment = self.kernel_profile["experiment"]
            axes = dict(self.kernel_profile.get("axes", {}))
            return experiment, axes, self.seed
        if self.campaigns:
            job = self.campaigns[0].matrix(self.seed).expand()[0]
            return job.experiment, job.kwargs_dict, job.seed
        return "table3", {"samples": 8}, self.seed

    @staticmethod
    def from_dict(spec: Dict, base_dir=None) -> "SuiteSpec":
        if not isinstance(spec, dict):
            raise ConfigurationError("suite spec must be a JSON object")
        if spec.get("schema") != SUITE_SCHEMA:
            raise ConfigurationError(
                f"suite spec must declare schema {SUITE_SCHEMA!r} "
                f"(got {spec.get('schema')!r})"
            )
        known = {"schema", "name", "seed", "campaigns", "services", "tunes",
                 "kernel_profile"}
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"unknown suite fields: {', '.join(sorted(unknown))}"
            )
        base = Path(base_dir) if base_dir is not None else None
        seed = spec.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigurationError("suite seed must be an integer")

        campaigns = tuple(
            _campaign_entry(entry, base)
            for entry in _entries(spec, "campaigns")
        )
        services = tuple(
            _service_entry(entry, base) for entry in _entries(spec, "services")
        )
        tunes = tuple(
            _tune_entry(entry, base) for entry in _entries(spec, "tunes")
        )
        for section, entries in (("campaigns", campaigns),
                                 ("services", services), ("tunes", tunes)):
            names = [e.name for e in entries]
            if len(set(names)) != len(names):
                raise ConfigurationError(f"{section} entry names must be unique")

        kernel_profile = spec.get("kernel_profile")
        if kernel_profile not in (None, False) and not isinstance(kernel_profile, dict):
            raise ConfigurationError(
                "kernel_profile must be false, an object, or absent"
            )
        if isinstance(kernel_profile, dict):
            unknown = set(kernel_profile) - {"experiment", "axes"}
            if unknown:
                raise ConfigurationError(
                    f"unknown kernel_profile fields: {', '.join(sorted(unknown))}"
                )
            experiment = kernel_profile.get("experiment")
            if experiment not in experiment_names():
                raise ConfigurationError(
                    f"kernel_profile experiment {experiment!r} is unknown"
                )
        return SuiteSpec(
            name=_check_entry_name("suite", spec.get("name")),
            seed=seed,
            campaigns=campaigns,
            services=services,
            tunes=tunes,
            kernel_profile=kernel_profile,
        )

    @staticmethod
    def from_json(text: str, base_dir=None) -> "SuiteSpec":
        try:
            spec = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"suite spec is not valid JSON: {exc}") from exc
        return SuiteSpec.from_dict(spec, base_dir=base_dir)

    @staticmethod
    def load(path) -> "SuiteSpec":
        """Load a suite file; relative inner paths resolve beside it."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read suite spec {path}: {exc}") from exc
        return SuiteSpec.from_json(text, base_dir=path.parent)


def _entries(spec: Dict, section: str) -> List[dict]:
    entries = spec.get(section, [])
    if not isinstance(entries, list) or any(
        not isinstance(e, dict) for e in entries
    ):
        raise ConfigurationError(f"{section} must be a list of objects")
    return entries


def _campaign_entry(entry: dict, base: Optional[Path]) -> CampaignEntry:
    unknown = set(entry) - {"name", "only", "scenarios", "faults"}
    if unknown:
        raise ConfigurationError(
            f"unknown campaign fields: {', '.join(sorted(unknown))}"
        )
    name = _check_entry_name("campaigns", entry.get("name"))
    only = entry.get("only")
    scenarios = entry.get("scenarios")
    if (only is None) == (scenarios is None):
        raise ConfigurationError(
            f"campaign {name!r}: declare exactly one of 'only' or 'scenarios'"
        )
    if only is not None:
        known = experiment_names() + sorted(ALIASES)
        bad = [n for n in only if n not in known]
        if bad:
            raise ConfigurationError(
                f"campaign {name!r}: unknown experiments {', '.join(bad)}"
            )
        only = tuple(ALIASES.get(n, n) for n in only)
    if scenarios is not None:
        for scenario in scenarios:
            if not isinstance(scenario, dict) or "experiment" not in scenario:
                raise ConfigurationError(
                    f"campaign {name!r}: each scenario needs an 'experiment'"
                )
            # raises on an unknown experiment or axis
            ScenarioMatrix().add(scenario["experiment"], **scenario.get("axes", {}))
    return CampaignEntry(
        name=name,
        only=only,
        scenarios=tuple(scenarios or ()),
        faults=_load_faults(entry.get("faults"), base),
    )


def _service_entry(entry: dict, base: Optional[Path]) -> ServiceEntry:
    unknown = set(entry) - {"name", "schedule", "repetitions", "calib_samples",
                            "faults"}
    if unknown:
        raise ConfigurationError(
            f"unknown service fields: {', '.join(sorted(unknown))}"
        )
    name = _check_entry_name("services", entry.get("name"))
    if "schedule" not in entry:
        raise ConfigurationError(f"service {name!r}: needs a schedule")
    loaded, _ = _load_inline_or_path(entry["schedule"], base, "schedule")
    repetitions = entry.get("repetitions", 1)
    calib_samples = entry.get("calib_samples", 24)
    if not isinstance(repetitions, int) or repetitions < 1:
        raise ConfigurationError(f"service {name!r}: repetitions must be >= 1")
    if not isinstance(calib_samples, int) or calib_samples < 1:
        raise ConfigurationError(f"service {name!r}: calib_samples must be >= 1")
    return ServiceEntry(
        name=name,
        schedule=ArrivalSchedule.from_dict(loaded),
        repetitions=repetitions,
        calib_samples=calib_samples,
        faults=_load_faults(entry.get("faults"), base),
    )


def _tune_entry(entry: dict, base: Optional[Path]) -> TuneEntry:
    unknown = set(entry) - {"name", "spec", "faults"}
    if unknown:
        raise ConfigurationError(
            f"unknown tune fields: {', '.join(sorted(unknown))}"
        )
    name = _check_entry_name("tunes", entry.get("name"))
    if "spec" not in entry:
        raise ConfigurationError(f"tune {name!r}: needs a spec")
    loaded, _ = _load_inline_or_path(entry["spec"], base, "tune spec")
    return TuneEntry(
        name=name,
        spec=TuneSpec.from_json(json.dumps(loaded)),
        faults=_load_faults(entry.get("faults"), base),
    )
