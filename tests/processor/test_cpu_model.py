"""Tests for the analytical CPU model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.processor import CpuModel, WorkloadProfile


def profile(**overrides):
    base = dict(
        name="synthetic", base_cpi=0.8, mem_mpki=1.0, exposed=0.6, mlp=3.0
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestWorkloadProfile:
    def test_sensitivity_formula(self):
        p = profile(mem_mpki=2.0, exposed=0.5, mlp=4.0)
        assert p.sensitivity == pytest.approx(2.0 / 1000 * 0.5 / 4.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            profile(base_cpi=0)
        with pytest.raises(ConfigurationError):
            profile(mem_mpki=-1)
        with pytest.raises(ConfigurationError):
            profile(exposed=1.5)
        with pytest.raises(ConfigurationError):
            profile(mlp=0.5)


class TestCpuModel:
    def test_cpi_grows_linearly_with_latency(self):
        model = CpuModel()
        p = profile()
        cpi_100 = model.cpi(p, 100)
        cpi_200 = model.cpi(p, 200)
        cpi_300 = model.cpi(p, 300)
        assert cpi_300 - cpi_200 == pytest.approx(cpi_200 - cpi_100)

    def test_zero_mpki_is_latency_insensitive(self):
        model = CpuModel()
        p = profile(mem_mpki=0.0)
        assert model.runtime_s(p, 100) == model.runtime_s(p, 1000)

    def test_degradation_positive_for_slower_memory(self):
        model = CpuModel()
        assert model.degradation(profile(), 97, 558) > 0

    def test_degradation_zero_for_same_latency(self):
        model = CpuModel()
        assert model.degradation(profile(), 97, 97) == pytest.approx(0)

    def test_spec_ratio_inverse_of_runtime(self):
        model = CpuModel()
        p = profile()
        r1, r2 = model.spec_ratio(p, 97), model.spec_ratio(p, 558)
        assert r1 > r2

    @given(st.floats(min_value=10, max_value=1000),
           st.floats(min_value=10, max_value=1000))
    def test_monotone_in_latency(self, a, b):
        model = CpuModel()
        p = profile()
        lo, hi = sorted((a, b))
        assert model.runtime_s(p, lo) <= model.runtime_s(p, hi)

    def test_higher_mlp_reduces_sensitivity(self):
        model = CpuModel()
        low_mlp = profile(mlp=1.5)
        high_mlp = profile(mlp=6.0)
        assert model.degradation(low_mlp, 97, 558) > model.degradation(high_mlp, 97, 558)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuModel().cpi(profile(), -1)
