"""Deterministic fault injection at named sites.

Fault tolerance is only as good as its tests, and real faults (a crash
between the graph mutation and the state repair, a torn WAL write, a
listener that throws) are timing-dependent and unreproducible.  This
module makes them deterministic: production code calls
:func:`inject(site) <inject>` at named sites, and a test arms a
:class:`FaultPlan` that raises :class:`InjectedFault` on the n-th hit of
a site.  With no plan armed, :func:`inject` is a global load and a
``None`` check — cheap enough for the sites it instruments (all at
apply/phase boundaries, never inside the fixpoint hot loops).

Sites instrumented across the library (see ``docs/robustness.md``):

===========================  =========================================================
Site                         Fires
===========================  =========================================================
``session.pre-apply``        after validation, before any replica mutates
``session.mid-apply``        between two queries' incremental applies
``session.listener``         inside listener delivery (models a raising listener)
``incremental.mid-apply``    after ``G ⊕ ΔG``, before the generic state repair
``kernel.mid-drain``         after ``G ⊕ ΔG``, before the kernel drain (one-shot
                             kernel applies only; sessions never reach it)
``scheduler.mid-stream``     before ``apply_stream``'s one apply of a stream
``engine.fixpoint``          on entry to :func:`~repro.core.engine.run_fixpoint`
``wal.mid-append``           between the two halves of a WAL record (torn write)
``checkpoint.mid-write``     after the temp file is written, before the rename
===========================  =========================================================

Plans can also be armed process-wide through the ``REPRO_FAULTS``
environment variable: ``REPRO_FAULTS="wal.mid-append:2"`` arms the named
triggers at import, ``REPRO_FAULTS=on`` merely confirms the harness is
enabled (the default), and ``REPRO_FAULTS=off`` disables every
:func:`inject` call outright.

>>> with injected("demo.site:2") as plan:
...     inject("demo.site")          # first hit: armed for the 2nd
...     try:
...         inject("demo.site")
...     except InjectedFault as exc:
...         print(exc.site, plan.fired)
demo.site ['demo.site']
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ReproError

#: Sites the library instruments.  Arming an unknown site is allowed
#: (tests may instrument their own code), but these names are stable API.
KNOWN_SITES = frozenset(
    {
        "session.pre-apply",
        "session.mid-apply",
        "session.listener",
        "incremental.mid-apply",
        "kernel.mid-drain",
        "scheduler.mid-stream",
        "engine.fixpoint",
        "wal.mid-append",
        "checkpoint.mid-write",
    }
)


class InjectedFault(ReproError):
    """The deliberate failure raised by an armed fault site."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at {site!r} (hit {hit})")
        self.site = site
        self.hit = hit


class _Trigger:
    __slots__ = ("site", "at", "times", "fired")

    def __init__(self, site: str, at: int = 1, times: int = 1) -> None:
        if at < 1:
            raise ReproError(f"fault trigger {site!r}: hit index must be >= 1, got {at}")
        self.site = site
        self.at = at          # fire on the at-th hit of the site...
        self.times = times    # ...and on the (times - 1) following hits; 0 = forever
        self.fired = 0


TriggerSpec = Union[str, Tuple[str, int], Tuple[str, int, int]]


class FaultPlan:
    """A deterministic schedule of failures, keyed by site name.

    Triggers are given as ``"site"`` (fire on the first hit),
    ``"site:n"`` (fire on the n-th hit), or ``"site:n:t"`` (fire on hits
    n .. n+t-1; ``t = 0`` means every hit from n on).  Tuples with the
    same shape are accepted too.
    """

    def __init__(self, *triggers: TriggerSpec, exception=InjectedFault) -> None:
        self._triggers: Dict[str, _Trigger] = {}
        self._hits: Dict[str, int] = {}
        self.fired: List[str] = []
        self._exception = exception
        for spec in triggers:
            trigger = self._parse_one(spec)
            self._triggers[trigger.site] = trigger

    @staticmethod
    def _parse_one(spec: TriggerSpec) -> _Trigger:
        if isinstance(spec, tuple):
            return _Trigger(*spec)
        parts = spec.strip().split(":")
        if not parts[0]:
            raise ReproError(f"empty fault site in trigger {spec!r}")
        try:
            at = int(parts[1]) if len(parts) > 1 else 1
            times = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise ReproError(f"malformed fault trigger {spec!r}; expected 'site[:at[:times]]'") from None
        return _Trigger(parts[0], at, times)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated trigger list (the ``REPRO_FAULTS`` format)."""
        return cls(*(part for part in text.split(",") if part.strip()))

    # ------------------------------------------------------------------
    def hit(self, site: str) -> None:
        """Record one hit of ``site``; raise if a trigger is due."""
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        trigger = self._triggers.get(site)
        if trigger is None or count < trigger.at:
            return
        if trigger.times and trigger.fired >= trigger.times:
            return
        trigger.fired += 1
        self.fired.append(site)
        raise self._exception(site, count)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been reached under this plan."""
        return self._hits.get(site, 0)

    def __repr__(self) -> str:
        armed = ", ".join(sorted(self._triggers))
        return f"FaultPlan([{armed}], fired={len(self.fired)})"


# ----------------------------------------------------------------------
# Global plan management
# ----------------------------------------------------------------------
_DISABLED = os.environ.get("REPRO_FAULTS", "").strip().lower() in ("0", "off", "false")
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide plan; returns the previous one."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def inject(site: str) -> None:
    """Hit a fault site.  No-op unless a plan is armed for it."""
    plan = _PLAN
    if plan is not None:
        plan.hit(site)


@contextmanager
def injected(*triggers: TriggerSpec, exception=InjectedFault) -> Iterator[FaultPlan]:
    """Arm a :class:`FaultPlan` for the duration of a ``with`` block."""
    plan = FaultPlan(*triggers, exception=exception)
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)


def _install_env_plan() -> None:
    """Arm the plan named by ``REPRO_FAULTS``, if it carries triggers."""
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw or raw.lower() in ("0", "off", "false", "1", "on", "true", "smoke"):
        return
    install(FaultPlan.parse(raw))


if not _DISABLED:
    _install_env_plan()
else:  # pragma: no cover - exercised via subprocess in tests

    def inject(site: str) -> None:  # noqa: F811 - deliberate disable shim
        return None
