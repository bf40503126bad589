"""ScenarioMatrix expansion: grids, seeds, identity, determinism."""

import pytest

from repro.campaign import (
    CampaignJob,
    ScenarioMatrix,
    experiment_names,
    get_experiment,
)
from repro.errors import ConfigurationError
from repro.sim import derive_seed


class TestExpansion:
    def test_paper_matrix_covers_every_experiment_in_order(self):
        jobs = ScenarioMatrix.paper().expand()
        # fault drills register paper=False and only run when named
        paper = [n for n in experiment_names() if get_experiment(n).paper]
        assert [j.experiment for j in jobs] == paper

    def test_fault_experiments_run_only_when_named(self):
        jobs = ScenarioMatrix.paper(only=["ber_sweep"]).expand()
        assert [j.experiment for j in jobs] == ["ber_sweep"]

    def test_paper_matrix_pins_harness_default_seed(self):
        assert all(j.seed == 0 for j in ScenarioMatrix.paper().expand())

    def test_paper_only_filter_preserves_order(self):
        jobs = ScenarioMatrix.paper(only=["table3", "table1"]).expand()
        assert [j.experiment for j in jobs] == ["table1", "table3"]

    def test_cross_product(self):
        matrix = ScenarioMatrix()
        matrix.add("fio", ios=[8, 32], iodepth=[1, 4], seed=0)
        jobs = matrix.expand()
        assert len(jobs) == 4
        combos = {(j.kwargs_dict["ios"], j.kwargs_dict["iodepth"]) for j in jobs}
        assert combos == {(8, 1), (8, 4), (32, 1), (32, 4)}

    def test_scalar_axis_is_singleton(self):
        jobs = ScenarioMatrix().add("table3", samples=8, seed=3).expand()
        assert len(jobs) == 1
        assert jobs[0].kwargs_dict == {"samples": 8}
        assert jobs[0].seed == 3

    def test_defaults_fill_unnamed_axes(self):
        jobs = ScenarioMatrix().add("table3", seed=0).expand()
        assert jobs[0].kwargs_dict == {"samples": 24}

    def test_duplicate_cells_collapse(self):
        matrix = ScenarioMatrix()
        matrix.add("table1", seed=0)
        matrix.add("table1", seed=0)
        assert len(matrix) == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioMatrix().add("table99")

    def test_axis_the_runner_does_not_take_rejected(self):
        # refused as the matrix is built, not as each job fails
        with pytest.raises(ConfigurationError, match="no axis 'sample'"):
            ScenarioMatrix().add("table3", sample=[4])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioMatrix().add("table3", samples=[])

    def test_hidden_experiments_not_in_paper_matrix(self):
        names = {j.experiment for j in ScenarioMatrix.paper().expand()}
        assert not any(name.startswith("_selftest") for name in names)


class TestSeeding:
    def test_derived_seed_depends_only_on_job_identity(self):
        # the same cell gets the same seed no matter what else the
        # matrix holds or in which order scenarios were added
        lone = ScenarioMatrix(base_seed=42).add("table3", samples=[8])
        crowded = ScenarioMatrix(base_seed=42)
        crowded.add("fio", ios=[8, 32])
        crowded.add("table3", samples=[24, 8])
        lone_seed = lone.expand()[0].seed
        crowded_seeds = {
            j.kwargs_dict["samples"]: j.seed
            for j in crowded.expand()
            if j.experiment == "table3"
        }
        assert crowded_seeds[8] == lone_seed
        assert crowded_seeds[24] != crowded_seeds[8]

    def test_derivation_matches_rng_child_seed_mix(self):
        job = ScenarioMatrix(base_seed=7).add("table3", samples=[8]).expand()[0]
        assert job.seed == derive_seed(7, 'table3|{"samples":8}')

    def test_base_seed_changes_every_derived_seed(self):
        a = ScenarioMatrix(base_seed=1).add("table3", samples=[8]).expand()[0]
        b = ScenarioMatrix(base_seed=2).add("table3", samples=[8]).expand()[0]
        assert a.seed != b.seed

    def test_explicit_seed_axis_overrides_derivation(self):
        jobs = ScenarioMatrix(base_seed=9).add("table3", seed=[5, 6]).expand()
        assert sorted(j.seed for j in jobs) == [5, 6]


class TestJobIdentity:
    def test_job_id_stable_and_readable(self):
        job = CampaignJob.make("table3", {"samples": 8}, 5)
        assert job.job_id == "table3[samples=8]#s5"

    def test_jobs_are_hashable_value_objects(self):
        a = CampaignJob.make("fio", {"ios": 8, "iodepth": 4}, 0)
        b = CampaignJob.make("fio", {"iodepth": 4, "ios": 8}, 0)
        assert a == b and hash(a) == hash(b)
