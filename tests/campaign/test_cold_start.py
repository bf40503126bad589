"""The import budget of a campaign job.

A job imports only the code its experiment runs: the worker module loads
no experiment code, a ``table3`` job never loads numpy or the
accelerator, fault, service, tuner or report packages, and the package roots
resolve their public names on first access.  Each check runs in a fresh
interpreter, because one test's imports would hide another's.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}

#: loaded-module report printed by every probe as its last line
REPORT = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'numpy' or m.startswith('repro'))))"
)


def loaded_after(code: str) -> set:
    """Modules (``numpy`` and ``repro*``) loaded once ``code`` has run."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def packages_in(modules: set, packages) -> set:
    return {m for m in modules for p in packages if m == p or m.startswith(p + ".")}


def test_worker_import_loads_no_experiment_code():
    modules = loaded_after("import repro.campaign.worker")
    heavy = ["numpy", "repro.core", "repro.accel", "repro.faults", "repro.hybrid",
             "repro.service", "repro.tune", "repro.report"]
    assert packages_in(modules, heavy) == set()


def test_table3_job_loads_only_what_it_runs():
    modules = loaded_after(
        "from repro.campaign.worker import execute_job\n"
        "out = execute_job(('table3', (('samples', 1),), 0))\n"
        "assert out['status'] == 'ok', out.get('traceback')"
    )
    assert "repro.core.experiment" in modules
    unused = ["numpy", "repro.accel", "repro.faults", "repro.service", "repro.tune",
              "repro.report"]
    assert packages_in(modules, unused) == set()


def test_table5_job_still_runs():
    modules = loaded_after(
        "from repro.campaign.worker import execute_job\n"
        "out = execute_job(('table5', (('size_mib', 1),), 0))\n"
        "assert out['status'] == 'ok', out.get('traceback')"
    )
    assert {"numpy", "repro.accel"} <= modules


def test_runners_are_imported_before_the_clock_and_the_fork():
    # the worker's clock starts just before its TraceSession opens, and
    # the pool forks its workers from the ProcessPoolExecutor it builds:
    # Table 1's runner module must already be loaded at both points
    loaded_after(
        "import sys\n"
        "import repro.campaign.runner as runner, repro.campaign.worker as worker\n"
        "from repro.campaign import CampaignJob, CampaignRunner\n"
        "seen = []\n"
        "def spy(real):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        seen.append('repro.core.experiment' in sys.modules)\n"
        "        return real(*args, **kwargs)\n"
        "    return wrapper\n"
        "worker.TraceSession = spy(worker.TraceSession)\n"
        "assert worker.execute_job(('table1', (), 0))['status'] == 'ok'\n"
        "del sys.modules['repro.core.experiment']\n"
        "runner.ProcessPoolExecutor = spy(runner.ProcessPoolExecutor)\n"
        "report = CampaignRunner([CampaignJob('table1', (), 0)], workers=2).run()\n"
        "assert not report.failed and seen == [True, True], seen"
    )


def test_lazy_exports_resolve():
    # every name of both lazy package roots resolves, so their name maps
    # cannot drift from ``__all__``; ``from repro import *`` walks them too
    loaded_after(
        "import repro, repro.campaign\n"
        "for pkg in (repro, repro.campaign):\n"
        "    missing = [n for n in pkg.__all__ if not hasattr(pkg, n)]\n"
        "    assert not missing, (pkg.__name__, missing)\n"
        "from repro import *\n"
        "from repro.campaign import *\n"
        "assert ContuttoSystem and run_table5 and CampaignRunner and execute_job"
    )
