"""The append-only benchmark run registry.

One JSON ledger per suite under ``benchmarks/results/``, all sharing the
schema-4 envelope, with one host record per run::

    {
      "schema": 4,
      "suite": "kernels",
      "runs":    [{"run": 1, "tag": "pr2-baseline", "scale": "full",
                   "host": {...incl. git_sha/git_dirty/available_cpus}}],
      "results": [{"name": "batch_sssp", ..., "run": 1}, ...]
    }

Rows are never rewritten: every :meth:`Registry.append` re-reads the
ledger under an exclusive lock, assigns the next run number, and writes
the grown file atomically — so the speedup/latency trajectory across
PRs stays visible and concurrent writers (parallel CI jobs, a human and
a cron) serialize instead of clobbering each other.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ReproError

#: Envelope version written by the registry.  Bump when the envelope
#: (not a suite's per-row fields) changes shape.
RECORD_SCHEMA = 4


class RegistryError(ReproError):
    """A registry invariant was violated (duplicate tag, bad envelope)."""


# ----------------------------------------------------------------------
# Host provenance
# ----------------------------------------------------------------------
def _git(args: List[str], cwd: Path) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except Exception:
        return None
    return proc.stdout.strip()


def repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """The checkout's top level, resolved by git itself.

    ``--show-toplevel`` answers correctly from any subdirectory, in
    detached-HEAD checkouts, and inside ``git worktree`` trees (where
    ``.git`` is a file, not a directory, and parent-directory heuristics
    lie).  ``None`` when the tree is not a checkout (e.g. an sdist).
    """
    here = (start or Path(__file__)).resolve()
    base = here if here.is_dir() else here.parent
    top = _git(["rev-parse", "--show-toplevel"], base)
    return Path(top) if top else None


def host_record(start: Optional[Path] = None) -> Dict[str, Any]:
    """Provenance for a benchmark run: interpreter, host, and git state.

    Recorded once per run so numbers from different PRs can be compared
    with their environment in view.  ``git_dirty`` records whether the
    working tree had uncommitted changes — gated comparisons refuse such
    runs as baselines (the sha alone would misattribute the numbers).
    """
    record: Dict[str, Any] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        # cpu_count() is the host's core count; the scheduler may pin
        # this process to fewer (CI containers often do).  Shard-sweep
        # rows are only comparable with the *effective* parallelism in
        # view — a 1-core run makes 8 shards pure overhead.
        "available_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "git_sha": None,
        "git_dirty": None,
    }
    root = repo_root(start)
    if root is not None:
        record["git_sha"] = _git(["rev-parse", "--short", "HEAD"], root)
        # Registry ledgers are themselves written during benchmarking —
        # excluding them keeps "record kernels, then serve" from branding
        # the second run dirty just because the first one's ledger landed
        # on disk.
        status = _git(
            [
                "status",
                "--porcelain",
                "--",
                ".",
                ":!benchmarks/results",
            ],
            root,
        )
        if status is not None:
            record["git_dirty"] = bool(status.strip())
    return record


#: Host fields that must agree for two runs' numbers to be comparable.
#: Wall-clock is meaningless across machines or across different CPU
#: budgets; python patch versions are allowed to differ.
COMPARABLE_FIELDS = ("machine", "cpus", "available_cpus")


def host_key(host: Dict[str, Any]) -> tuple:
    """The comparability key of a host record (see :data:`COMPARABLE_FIELDS`)."""
    python = str(host.get("python") or "?")
    major_minor = ".".join(python.split(".")[:2])
    return (major_minor,) + tuple(host.get(f) for f in COMPARABLE_FIELDS)


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return host_key(a) == host_key(b)


# ----------------------------------------------------------------------
# Ledger model
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One appended run: its number, tag, scale, and host provenance."""

    run: int
    host: Dict[str, Any] = field(default_factory=dict)
    tag: Optional[str] = None
    scale: Optional[str] = None
    recorded_at: Optional[str] = None
    migrated: bool = False  #: lifted from a pre-registry file; host inferred

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"run": self.run, "host": self.host}
        if self.tag is not None:
            doc["tag"] = self.tag
        if self.scale is not None:
            doc["scale"] = self.scale
        if self.recorded_at is not None:
            doc["recorded_at"] = self.recorded_at
        if self.migrated:
            doc["migrated"] = True
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunRecord":
        return cls(
            run=doc["run"],
            host=doc.get("host", {}),
            tag=doc.get("tag"),
            scale=doc.get("scale"),
            recorded_at=doc.get("recorded_at"),
            migrated=bool(doc.get("migrated", False)),
        )


@dataclass
class Ledger:
    """The parsed contents of one suite's registry file."""

    suite: str
    runs: List[RunRecord] = field(default_factory=list)
    results: List[Dict[str, Any]] = field(default_factory=list)

    def rows(self, run: Optional[int] = None) -> List[Dict[str, Any]]:
        if run is None:
            return list(self.results)
        return [row for row in self.results if row.get("run") == run]

    @property
    def latest(self) -> Optional[RunRecord]:
        return max(self.runs, key=lambda r: r.run) if self.runs else None

    def baseline_for(self, current: RunRecord) -> Optional[RunRecord]:
        """The newest earlier run a gate may compare ``current`` against:
        same host comparability key, same scale, and a clean tree
        (``git_dirty`` runs are refused — their sha misattributes the
        numbers; ``None``/legacy dirty bits are trusted)."""
        candidates = [
            record
            for record in self.runs
            if record.run < current.run
            and record.scale == current.scale
            and comparable(record.host, current.host)
            and record.host.get("git_dirty") is not True
        ]
        return max(candidates, key=lambda r: r.run) if candidates else None

    def as_payload(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "suite": self.suite,
            "runs": [record.as_dict() for record in self.runs],
            "results": self.results,
        }


def _parse_ledger(suite: str, payload: Dict[str, Any]) -> Ledger:
    schema = payload.get("schema")
    if schema == RECORD_SCHEMA:
        return Ledger(
            suite=payload.get("suite", suite),
            runs=[RunRecord.from_dict(doc) for doc in payload.get("runs", [])],
            results=list(payload.get("results", [])),
        )
    raise RegistryError(
        f"{suite}: unsupported registry schema {schema!r} "
        f"(this build reads {RECORD_SCHEMA})"
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def default_root() -> Path:
    """Where the ledgers live: ``$REPRO_RESULTS_DIR``, else
    ``<checkout>/benchmarks/results``, else ``./benchmarks/results``."""
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return Path(env)
    root = repo_root()
    if root is not None and (root / "benchmarks").is_dir():
        return root / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


class Registry:
    """Append-only run store for benchmark suites.

    >>> registry = Registry(root=tmp)                    # doctest: +SKIP
    >>> record = registry.append("kernels", rows, tag="pr10")  # doctest: +SKIP
    """

    LOCK_TIMEOUT_S = 20.0

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_root()

    def path(self, suite: str) -> Path:
        return self.root / f"{suite}.json"

    def suites(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, suite: str) -> Ledger:
        """The suite's ledger (empty when none was recorded yet)."""
        path = self.path(suite)
        if path.exists():
            return _parse_ledger(suite, json.loads(path.read_text()))
        return Ledger(suite=suite)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        suite: str,
        rows: Iterable[Dict[str, Any]],
        *,
        tag: Optional[str] = None,
        scale: Optional[str] = None,
        host: Optional[Dict[str, Any]] = None,
    ) -> RunRecord:
        """Append ``rows`` as the suite's next run and return its record.

        Earlier rows are kept verbatim (append-only); the whole
        read-modify-write cycle holds an exclusive lock file so
        concurrent writers serialize, and the rewrite is atomic
        (temp file + ``os.replace``).  ``tag`` must be unique within
        the suite.
        """
        rows = [dict(row) for row in rows]
        if not rows:
            raise RegistryError(f"{suite}: refusing to record an empty run")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(suite)
        with self._locked(path):
            ledger = self.load(suite)
            if tag is not None and any(r.tag == tag for r in ledger.runs):
                raise RegistryError(f"{suite}: run tag {tag!r} already recorded")
            run = max((r.run for r in ledger.runs), default=0) + 1
            for row in rows:
                row["run"] = run
            record = RunRecord(
                run=run,
                host=host if host is not None else host_record(),
                tag=tag,
                scale=scale,
                recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            )
            ledger.runs.append(record)
            ledger.results.extend(rows)
            self._write(path, ledger)
        return record

    def _write(self, path: Path, ledger: Ledger) -> None:
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(ledger.as_payload(), indent=1) + "\n")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _locked(self, path: Path):
        return _FileLock(path.with_suffix(".json.lock"), timeout=self.LOCK_TIMEOUT_S)


class _FileLock:
    """O_EXCL lock file: portable mutual exclusion for ledger rewrites."""

    def __init__(self, path: Path, timeout: float) -> None:
        self.path = path
        self.timeout = timeout

    def __enter__(self) -> "_FileLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return self
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise RegistryError(
                        f"registry lock {self.path} held for over "
                        f"{self.timeout:.0f}s; remove it if its owner died"
                    ) from None
                time.sleep(0.02)

    def __exit__(self, *exc) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
