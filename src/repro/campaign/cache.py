"""Content-addressed on-disk cache of experiment results.

A cache entry's key is the SHA-256 of ``(experiment name, canonical
kwargs, seed, attribution mode, code fingerprint)``.  The fingerprint
hashes every ``repro`` source file, so *any* code change invalidates
every entry — deliberately coarse: a stale table silently served after
a model edit would poison EXPERIMENTS.md, while re-running a few
minutes of simulation is cheap.  The attribution mode is part of the
address because ``journeys`` and ``summary`` workers do different
telemetry work and produce different artifact payloads.

An entry holds the *whole* job payload that
:func:`~repro.campaign.worker.execute_job` returned — the result (the
:class:`~repro.core.results.ResultTable` or tuple of tables exactly as
the runner returned it) **plus** the metrics snapshot, the counts and
samples the campaign's merged snapshot pools, and the attribution records
and fault windows the traced run produced — less its wall-clock
``duration_s``.  Caching only the result would make
warm re-runs lose their ``metrics.jsonl``/``attribution.jsonl``
content, and a suite ``report.json`` built from a cache hit would
differ from the run that populated the cache — the exact drift the
report diff gate exists to catch.  A small JSON sidecar describes what
produced each entry, so a cache directory is inspectable with ``ls``
and ``python -m json.tool``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional

from .matrix import CampaignJob, canonical_kwargs

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(package_root: Optional[str] = None) -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Stable across processes and machines for identical sources (files are
    hashed in sorted relative-path order); memoized per process.
    """
    if package_root is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
    cached = _FINGERPRINT_CACHE.get(package_root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    root = Path(package_root)
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[package_root] = fingerprint
    return fingerprint


def job_key(
    job: CampaignJob, fingerprint: Optional[str] = None,
    mode: str = "journeys",
) -> str:
    """The content address of one job's payload under one attribution mode."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    material = "\0".join(
        [job.experiment, canonical_kwargs(job.kwargs_dict), str(job.seed),
         mode, fingerprint]
    )
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """Filesystem cache: ``<dir>/<key[:2]>/<key>.pkl`` + ``.json`` sidecar."""

    def __init__(self, directory: str, fingerprint: Optional[str] = None):
        self.directory = Path(directory)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0

    def _paths(self, key: str) -> tuple:
        shard = self.directory / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def key_for(self, job: CampaignJob, mode: str = "journeys") -> str:
        return job_key(job, self.fingerprint, mode=mode)

    def get(self, job: CampaignJob, mode: str = "journeys"):
        """The cached payload, or None.  Corrupt entries count as misses.

        A replayed :class:`JobOutcome` holding it is artifact-identical to
        the run that populated the cache.
        """
        path, _ = self._paths(self.key_for(job, mode))
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, job: CampaignJob, payload: dict, mode: str = "journeys") -> str:
        """Store a job's payload, less ``duration_s``; returns the content
        key.

        Writes are atomic (tempfile + rename) so a crashed or parallel
        writer can never leave a half-written entry that a later
        :meth:`get` would trust.
        """
        key = self.key_for(job, mode)
        entry = {k: v for k, v in payload.items() if k != "duration_s"}
        path, sidecar = self._paths(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
        meta = {
            "experiment": job.experiment,
            "kwargs": job.kwargs_dict,
            "seed": job.seed,
            "mode": mode,
            "fingerprint": self.fingerprint,
            "job_id": job.job_id,
        }
        self._atomic_write(sidecar, json.dumps(meta, sort_keys=True, default=str).encode())
        return key

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def contains(self, job: CampaignJob, mode: str = "journeys") -> bool:
        path, _ = self._paths(self.key_for(job, mode))
        return path.exists()

    def entry_count(self) -> int:
        return sum(1 for _ in self.directory.rglob("*.pkl")) if self.directory.exists() else 0
