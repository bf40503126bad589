"""Every registered experiment can run with its own defaults.

A campaign job calls ``spec.runner(**kwargs, seed=...)``, so a default
the runner no longer accepts, or a fault plan threaded into a runner
without a ``faults`` parameter, fails only at job time.  These checks
catch both at collection instead, and check that the CLIs' ``--samples``
lands on the knob each spec names as its size.
"""

import inspect

import pytest

from repro.campaign.registry import REGISTRY

SPECS = sorted(REGISTRY.values(), key=lambda spec: spec.name)


def params(spec):
    return inspect.signature(spec.runner).parameters


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
class TestRegistrySpec:
    def test_defaults_bind_to_the_runner(self, spec):
        inspect.signature(spec.runner).bind(**spec.defaults)

    def test_runner_takes_seed(self, spec):
        assert "seed" in params(spec)

    def test_supports_faults_matches_the_runner(self, spec):
        assert spec.supports_faults == ("faults" in params(spec))

    def test_size_knob_names_an_int_default(self, spec):
        if spec.size_knob is not None:
            assert type(spec.defaults[spec.size_knob]) is int


def test_samples_lands_on_the_size_knob():
    # tiered_replay's first default is its policy, not its size
    from repro.campaign import run_experiment

    _, report = run_experiment("tiered_replay", samples=4, spans=False)
    (table,) = report.tables()
    assert table.rows[0][:3] == ["clock", "graph", 4]
