"""The ambient trace hook instrumented components consult.

This module is the *entire* coupling between the simulation models and the
telemetry subsystem.  A count the component keeps anyway lives in its
:class:`Counts` object, which the session's snapshots read; everything
else goes through the ambient session:

    from ..telemetry import probe
    ...
    self.counts.frames_sent += 1
    trace = probe.session
    if trace is not None:
        trace.complete("dmi", label, start_ps, end_ps)

``probe.session`` is ``None`` whenever no :class:`~repro.telemetry.session.
TraceSession` is active, so the disabled cost at every instrumentation
site is one module-attribute load and an ``is None`` test — no allocation,
no call.  Hot inner loops (the kernel's event dispatch) hoist the check
out of the loop entirely.

Only one session may be active at a time; sessions activate themselves on
``__enter__`` and must deactivate with the same object, which catches
accidental nesting and leaked sessions deterministically.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import TelemetryError

#: the active TraceSession, or None (telemetry off).  Read directly.
session: Optional[object] = None


class Counts:
    """The counts one component keeps, which snapshots read in place.

    A subclass maps each field (0 at first) to its metric name in
    ``METRICS``.  Made while a session is active, the object joins that
    session's registry, whose snapshots add each field under its name;
    made with no session active, it joins none.  The registry holds this
    object, never the component, so a dropped system is still collected.
    """

    #: field name -> metric name
    METRICS: Dict[str, str] = {}

    def __init__(self) -> None:
        for field in self.METRICS:
            setattr(self, field, 0)
        if session is not None:
            session.registry.add_counts(self)


def activate(new_session: object) -> None:
    """Install ``new_session`` as the ambient session (fails if one is up)."""
    global session
    if session is not None:
        raise TelemetryError(
            "a TraceSession is already active; nested sessions are not "
            "supported (close the outer session first)"
        )
    session = new_session


def deactivate(old_session: object) -> None:
    """Remove the ambient session; must be the one that activated."""
    global session
    if session is not old_session:
        raise TelemetryError("deactivate() called with a non-active session")
    session = None


def active() -> bool:
    """Whether a trace session is currently collecting."""
    return session is not None


def tracker():
    """The ambient session's journey tracker, or None (no session)."""
    return session.journeys if session is not None else None


def set_scenario(label: str) -> None:
    """Label journeys begun from here on (no-op when telemetry is off).

    Measurement loops set the configuration's label just before measuring.
    """
    journeys = tracker()
    if journeys is not None:
        journeys.set_scenario(label)
