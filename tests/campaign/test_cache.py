"""Result-cache correctness: hits, misses, fingerprint invalidation."""

from repro.campaign import CampaignJob, ResultCache, code_fingerprint, job_key
from repro.core.results import ResultTable


def echo_table(value):
    table = ResultTable("t", ["v"])
    table.add_row(value)
    return table


JOB = CampaignJob.make("_selftest_echo", {"value": 1}, 0)


class TestKeying:
    def test_key_is_content_addressed(self):
        assert job_key(JOB, "fp") == job_key(JOB, "fp")
        assert len(job_key(JOB, "fp")) == 64

    def test_key_changes_with_kwargs(self):
        other = CampaignJob.make("_selftest_echo", {"value": 2}, 0)
        assert job_key(JOB, "fp") != job_key(other, "fp")

    def test_key_changes_with_seed(self):
        other = CampaignJob.make("_selftest_echo", {"value": 1}, 1)
        assert job_key(JOB, "fp") != job_key(other, "fp")

    def test_key_changes_with_experiment(self):
        other = CampaignJob.make("_selftest_fail", {"value": 1}, 0)
        assert job_key(JOB, "fp") != job_key(other, "fp")

    def test_key_changes_with_code_fingerprint(self):
        assert job_key(JOB, "fp-a") != job_key(JOB, "fp-b")

    def test_fingerprint_tracks_source_content(self, tmp_path):
        (tmp_path / "mod.py").write_text("A = 1\n")
        fp1 = code_fingerprint(str(tmp_path))
        (tmp_path / "mod.py").write_text("A = 2\n")
        # memoized per root path string — use a distinct path for the edit
        import repro.campaign.cache as cache_mod

        cache_mod._FINGERPRINT_CACHE.clear()
        fp2 = code_fingerprint(str(tmp_path))
        assert fp1 != fp2

    def test_fingerprint_of_package_is_memoized_and_stable(self):
        assert code_fingerprint() == code_fingerprint()


class TestStore:
    def test_hit_on_identical_job(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        assert cache.get(JOB) is None
        cache.put(JOB, {"result": echo_table(1)})
        hit = cache.get(JOB)
        assert hit["result"] == echo_table(1)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.contains(JOB)

    def test_entry_carries_full_job_payload(self, tmp_path):
        # warm replays must be artifact-identical to the original run:
        # the whole payload rides in the entry, less its wall-clock time
        cache = ResultCache(tmp_path, fingerprint="fp")
        payload = {
            "status": "ok", "result": echo_table(1), "metrics": {"m": 1},
            "amounts": {"m": 1, "h": [3, 1, 2]},
            "attribution": [{"kind": "journey", "jid": 1}],
            "journeys_dropped": 0, "journeys_abandoned": 1,
            "fault_windows": [{"label": "drop", "start_ps": 0, "end_ps": 5}],
            "duration_s": 0.25,
        }
        cache.put(JOB, payload)
        hit = cache.get(JOB)
        assert hit == {k: v for k, v in payload.items() if k != "duration_s"}

    def test_miss_on_changed_kwargs_seed_or_code(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        cache.put(JOB, {"result": echo_table(1)})
        assert cache.get(CampaignJob.make("_selftest_echo", {"value": 2}, 0)) is None
        assert cache.get(CampaignJob.make("_selftest_echo", {"value": 1}, 1)) is None
        stale_code = ResultCache(tmp_path, fingerprint="fp2")
        assert stale_code.get(JOB) is None

    def test_tuple_results_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        pair = (echo_table(1), echo_table(2))
        cache.put(JOB, {"result": pair})
        assert cache.get(JOB)["result"] == pair

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        key = cache.put(JOB, {"result": echo_table(1)})
        payload = tmp_path / key[:2] / f"{key}.pkl"
        payload.write_bytes(b"not a pickle")
        assert cache.get(JOB) is None

    def test_sidecar_describes_entry(self, tmp_path):
        import json

        cache = ResultCache(tmp_path, fingerprint="fp")
        key = cache.put(JOB, {"result": echo_table(1)})
        meta = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert meta == {
            "experiment": "_selftest_echo", "kwargs": {"value": 1}, "seed": 0,
            "fingerprint": "fp", "job_id": JOB.job_id,
        }

    def test_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        assert cache.entry_count() == 0
        cache.put(JOB, {"result": echo_table(1)})
        assert cache.entry_count() == 1
