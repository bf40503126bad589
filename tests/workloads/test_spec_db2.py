"""Tests for the SPEC CINT2006 and DB2 BLU workload models."""

import pytest

from repro.workloads import Db2BluWorkload, NUM_QUERIES, SpecSuite, cint2006_profiles, profile_by_name


class TestSpecSuite:
    def test_twelve_benchmarks(self):
        assert len(cint2006_profiles()) == 12

    def test_lookup_by_short_name(self):
        assert profile_by_name("mcf").name == "429.mcf"
        with pytest.raises(KeyError):
            profile_by_name("doom3")

    def test_ratios_decrease_with_latency(self):
        suite = SpecSuite()
        fast = suite.ratios(97)
        slow = suite.ratios(558)
        for name in fast:
            assert slow[name] <= fast[name]

    def test_figure7_population_shape(self):
        # the paper's claims at ~6x latency (97 -> 558 ns)
        suite = SpecSuite()
        pop = suite.population_summary(97, 558)
        assert pop["under_2pct"] >= 0.45          # "about half ... less than 2%"
        assert pop["under_10pct"] >= 0.6          # "two-thirds ... under 10%"
        assert pop["band_15_to_35pct"] > 0        # "15% to 35%" band exists
        assert pop["over_50pct"] == pytest.approx(1 / 12)  # exactly one (mcf)
        assert pop["max"] > 0.50

    def test_mcf_is_the_outlier(self):
        suite = SpecSuite()
        degs = suite.degradations(97, 558)
        worst = max(degs, key=degs.get)
        assert worst == "429.mcf"

    def test_libquantum_prefetch_friendly(self):
        # streaming + prefetchable: high MPKI but modest sensitivity
        suite = SpecSuite()
        degs = suite.degradations(97, 558)
        assert degs["462.libquantum"] < 0.10

    def test_sweep_shape(self):
        suite = SpecSuite()
        series = suite.sweep([97, 390, 438, 534, 558])
        assert len(series) == 12
        for values in series.values():
            assert values == sorted(values, reverse=True)

    def test_figure6_range_mild(self):
        # Figure 6's range (79 -> 249 ns) shows milder degradation than Fig 7
        suite = SpecSuite()
        fig6 = suite.degradations(79, 249)
        fig7 = suite.degradations(97, 558)
        for name in fig6:
            assert fig6[name] <= fig7[name]


class TestDb2Blu:
    def test_29_queries(self):
        assert len(Db2BluWorkload().queries) == NUM_QUERIES == 29

    def test_table2_anchor_at_79ns(self):
        workload = Db2BluWorkload()
        assert workload.total_runtime_s(79) == pytest.approx(5_387, rel=0.001)

    def test_table2_anchor_at_249ns(self):
        workload = Db2BluWorkload()
        assert workload.total_runtime_s(249) == pytest.approx(5_802, rel=0.001)

    def test_interpolated_points_match_table2_shape(self):
        # 83 ns -> ~5451 s, 116 ns -> ~5484 s in the paper
        workload = Db2BluWorkload()
        assert workload.total_runtime_s(83) == pytest.approx(5_451, rel=0.01)
        assert workload.total_runtime_s(116) == pytest.approx(5_484, rel=0.01)

    def test_headline_claim_under_8pct(self):
        workload = Db2BluWorkload()
        assert workload.degradation(79, 249) < 0.08

    def test_runtime_monotone_in_latency(self):
        workload = Db2BluWorkload()
        runtimes = [workload.total_runtime_s(lat) for lat in (79, 100, 150, 249, 400)]
        assert runtimes == sorted(runtimes)
