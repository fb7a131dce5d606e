"""Tests for the concurrency lint pass (T001–T007) and the dynamic
thread sanitizer that cross-checks it (``REPRO_TSAN``).

Each seeded fixture below is a tiny in-memory module containing exactly
one race the static pass must catch; the repo-clean tests then assert
the *real* tree produces zero unsuppressed findings — the same
all-fixtures-fire / real-code-clean structure ``test_lint.py`` uses for
the spec rules.  The sanitizer tests arm ``REPRO_TSAN`` programmatically
and prove both directions: an intentionally-raced session raises
:class:`~repro.resilience.sanitizer.SanitizerViolation`, and the real
serve tier runs clean with every check armed.
"""

import threading
import time

import pytest

from repro.errors import ReproError
from repro.graph import Batch, EdgeInsertion, from_edges
from repro.lint import lint_specs, lint_threads
from repro.lint.concurrency import DEFAULT_MODEL, ThreadModel, check_concurrency
from repro.lint.effects import EffectIndex
from repro.resilience import sanitizer as tsan
from repro.serve import QueryService, ServiceConfig
from repro.session import DynamicGraphSession


def rule_ids(findings, unsuppressed_only=True):
    return {
        f.rule.id
        for f in findings
        if not (unsuppressed_only and f.suppressed)
    }


def check(sources, model, hints=None):
    index = EffectIndex.from_sources(sources, hints=hints)
    return check_concurrency(index, model)


# ======================================================================
# Seeded fixtures: each module contains exactly one race
# ======================================================================
class TestSeededFixtures:
    def test_t001_reader_reaches_guarded_mutation(self):
        findings = check(
            {
                "fix": (
                    "class Graph:\n"
                    "    def __init__(self):\n"
                    "        self.nodes = {}\n"
                    "    def add_node(self, key):\n"
                    "        self.nodes[key] = True\n"
                    "\n"
                    "class Service:\n"
                    "    def __init__(self):\n"
                    "        self.graph = Graph()\n"
                    "    def read(self, key):\n"
                    "        self.graph.add_node(key)\n"
                )
            },
            ThreadModel(
                reader_entries=("fix.Service.read",),
                guarded_classes=frozenset({"Graph"}),
            ),
        )
        assert "T001" in rule_ids(findings)
        [finding] = [f for f in findings if f.rule.id == "T001"]
        assert "Graph" in finding.message

    def test_t001_clean_when_mutation_is_thread_private(self):
        # Same shape, but the mutated graph is constructed locally: the
        # thread-privacy analysis must keep this quiet.
        findings = check(
            {
                "fix": (
                    "class Graph:\n"
                    "    def __init__(self):\n"
                    "        self.nodes = {}\n"
                    "    def add_node(self, key):\n"
                    "        self.nodes[key] = True\n"
                    "\n"
                    "class Service:\n"
                    "    def read(self, key):\n"
                    "        scratch = Graph()\n"
                    "        scratch.add_node(key)\n"
                    "        return scratch\n"
                )
            },
            ThreadModel(
                reader_entries=("fix.Service.read",),
                guarded_classes=frozenset({"Graph"}),
            ),
        )
        assert "T001" not in rule_ids(findings)

    def test_t002_mutable_state_escapes_shared_class(self):
        findings = check(
            {
                "fix": (
                    "class Store:\n"
                    "    def __init__(self):\n"
                    "        self.snapshots = {}\n"
                    "    def as_dict(self):\n"
                    "        return self.snapshots\n"
                )
            },
            ThreadModel(shared_classes=frozenset({"Store"})),
        )
        assert "T002" in rule_ids(findings)
        [finding] = [f for f in findings if f.rule.id == "T002"]
        assert "snapshots" in finding.message

    def test_t002_frozen_dataclass_write(self):
        findings = check(
            {
                "fix": (
                    "from dataclasses import dataclass\n"
                    "\n"
                    "@dataclass(frozen=True)\n"
                    "class Snap:\n"
                    "    seq: int\n"
                    "\n"
                    "def bump(snap: Snap):\n"
                    "    object.__setattr__(snap, 'seq', 1)\n"
                )
            },
            ThreadModel(),
        )
        assert "T002" in rule_ids(findings)

    def test_t003_locked_field_read_bare(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Counter:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._value = 0\n"
                    "    def incr(self):\n"
                    "        with self._lock:\n"
                    "            self._value += 1\n"
                    "    def peek(self):\n"
                    "        return self._value\n"
                )
            },
            ThreadModel(),
        )
        assert "T003" in rule_ids(findings)
        [finding] = [f for f in findings if f.rule.id == "T003"]
        assert "peek" in finding.message

    def test_t003_all_locked_is_clean(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Counter:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._value = 0\n"
                    "    def incr(self):\n"
                    "        with self._lock:\n"
                    "            self._value += 1\n"
                    "    def peek(self):\n"
                    "        with self._lock:\n"
                    "            return self._value\n"
                )
            },
            ThreadModel(),
        )
        assert "T003" not in rule_ids(findings)

    def test_t004_lock_order_inversion(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Pair:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def one(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                    "    def two(self):\n"
                    "        with self._b:\n"
                    "            with self._a:\n"
                    "                pass\n"
                )
            },
            ThreadModel(),
        )
        assert "T004" in rule_ids(findings)

    def test_t005_blocking_call_under_lock(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "import time\n"
                    "\n"
                    "class Slow:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def work(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(1.0)\n"
                )
            },
            ThreadModel(),
        )
        assert "T005" in rule_ids(findings)

    def test_t005_condition_wait_is_exempt(self):
        # cond.wait() releases the condition it is called on: the one
        # blocking-under-lock pattern that is *correct* by design.
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Waiter:\n"
                    "    def __init__(self):\n"
                    "        self._cond = threading.Condition()\n"
                    "    def park(self):\n"
                    "        with self._cond:\n"
                    "            self._cond.wait()\n"
                )
            },
            ThreadModel(),
        )
        assert "T005" not in rule_ids(findings)

    def test_t006_apply_before_wal_append(self):
        findings = check(
            {
                "fix": (
                    "class WriteAheadLog:\n"
                    "    def append(self, seq, batch):\n"
                    "        pass\n"
                    "\n"
                    "class Graph:\n"
                    "    pass\n"
                    "\n"
                    "def apply_updates(graph, batch):\n"
                    "    pass\n"
                    "\n"
                    "class Session:\n"
                    "    def __init__(self):\n"
                    "        self.wal = WriteAheadLog()\n"
                    "        self.graph = Graph()\n"
                    "    def update(self, batch):\n"
                    "        apply_updates(self.graph, batch)\n"
                    "        self.wal.append(1, batch)\n"
                )
            },
            ThreadModel(wal_classes=frozenset({"WriteAheadLog"})),
        )
        assert "T006" in rule_ids(findings)

    def test_t006_append_first_is_clean(self):
        findings = check(
            {
                "fix": (
                    "class WriteAheadLog:\n"
                    "    def append(self, seq, batch):\n"
                    "        pass\n"
                    "\n"
                    "class Graph:\n"
                    "    pass\n"
                    "\n"
                    "def apply_updates(graph, batch):\n"
                    "    pass\n"
                    "\n"
                    "class Session:\n"
                    "    def __init__(self):\n"
                    "        self.wal = WriteAheadLog()\n"
                    "        self.graph = Graph()\n"
                    "    def update(self, batch):\n"
                    "        self.wal.append(1, batch)\n"
                    "        apply_updates(self.graph, batch)\n"
                )
            },
            ThreadModel(wal_classes=frozenset({"WriteAheadLog"})),
        )
        assert "T006" not in rule_ids(findings)

    def test_t006_orders_the_maintenance_step_on_a_fresh_window(self):
        # The session's commit step takes a freshly built window list;
        # a private first argument must not exempt it from the ordering.
        findings = check(
            {
                "fix": (
                    "class WriteAheadLog:\n"
                    "    def append(self, seq, batch):\n"
                    "        pass\n"
                    "\n"
                    "class Session:\n"
                    "    def __init__(self):\n"
                    "        self.wal = WriteAheadLog()\n"
                    "    def _maintain(self, stream, seq):\n"
                    "        pass\n"
                    "    def update_stream(self, items):\n"
                    "        stream = [item for item in items]\n"
                    "        self._maintain(stream, 1)\n"
                    "        self.wal.append(1, stream)\n"
                )
            },
            ThreadModel(wal_classes=frozenset({"WriteAheadLog"})),
        )
        assert "T006" in rule_ids(findings)

    def test_t006_attribute_call_never_resolves_to_a_module_function(self):
        # ``registered.batch.run`` is a method call on an untyped
        # receiver; the module-level ``run`` that reaches the WAL append
        # is not its callee, so the apply before it is no violation.
        findings = check(
            {
                "fix": (
                    "class WriteAheadLog:\n"
                    "    def append(self, seq, batch):\n"
                    "        pass\n"
                    "\n"
                    "def run(wal: WriteAheadLog, batch):\n"
                    "    wal.append(1, batch)\n"
                    "\n"
                    "class Session:\n"
                    "    def __init__(self):\n"
                    "        self.wal = WriteAheadLog()\n"
                    "    def _maintain(self, registered, stream):\n"
                    "        registered.incremental.apply(stream)\n"
                    "        registered.batch.run(stream)\n"
                )
            },
            ThreadModel(wal_classes=frozenset({"WriteAheadLog"})),
        )
        assert not [f for f in findings if f.rule.id == "T006" and "_maintain" in f.message]

    def test_t007_listener_invoked_under_lock(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Notifier:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.listener = None\n"
                    "    def fire(self, result):\n"
                    "        with self._lock:\n"
                    "            self.listener(result)\n"
                )
            },
            ThreadModel(),
        )
        assert "T007" in rule_ids(findings)

    def test_t007_listener_outside_lock_is_clean(self):
        findings = check(
            {
                "fix": (
                    "import threading\n"
                    "\n"
                    "class Notifier:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.listener = None\n"
                    "    def fire(self, result):\n"
                    "        with self._lock:\n"
                    "            pending = self.listener\n"
                    "        pending(result)\n"
                )
            },
            ThreadModel(),
        )
        assert "T007" not in rule_ids(findings)


# ======================================================================
# Pragmas
# ======================================================================
class TestPragmas:
    SOURCE = (
        "import threading\n"
        "\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._value = 0\n"
        "    def incr(self):\n"
        "        with self._lock:\n"
        "            self._value += 1\n"
        "    def peek(self):\n"
        "        {pragma}\n"
        "        return self._value\n"
    )

    def test_allow_pragma_suppresses(self):
        src = self.SOURCE.format(
            pragma="# lint: allow(T003): monotonic counter, torn reads fine"
        )
        findings = check({"fix": src}, ThreadModel())
        t003 = [f for f in findings if f.rule.id == "T003"]
        assert t003 and all(f.suppressed for f in t003)

    def test_pragma_survives_a_comment_block(self):
        src = self.SOURCE.format(
            pragma=(
                "# lint: allow(T003): monotonic counter —\n"
                "        # torn reads are acceptable here"
            )
        )
        findings = check({"fix": src}, ThreadModel())
        t003 = [f for f in findings if f.rule.id == "T003"]
        assert t003 and all(f.suppressed for f in t003)

    def test_wrong_rule_pragma_does_not_suppress(self):
        src = self.SOURCE.format(pragma="# lint: allow(T001): wrong rule")
        findings = check({"fix": src}, ThreadModel())
        t003 = [f for f in findings if f.rule.id == "T003"]
        assert t003 and not any(f.suppressed for f in t003)


# ======================================================================
# The real tree
# ======================================================================
class TestRepositoryClean:
    def test_repo_has_no_unsuppressed_findings(self):
        findings = lint_threads()
        live = [f for f in findings if not f.suppressed]
        assert live == [], [f.message for f in live]

    def test_repo_suppressions_are_justified(self):
        # Every waiver in the tree must carry a reason: a bare
        # ``allow(Txxx)`` with no explanation is not an audit trail.
        from pathlib import Path

        import repro

        index = EffectIndex.from_package(Path(repro.__file__).resolve().parent)
        for per_file in index.pragmas.values():
            for entries in per_file.values():
                for rule_id, reason in entries:
                    if rule_id.startswith("T"):
                        assert reason.strip(), f"bare allow({rule_id}) pragma"

    def test_threads_pass_reported_by_lint_specs(self):
        report = lint_specs(threads=True)
        passes = report.pass_summary()
        assert passes["threads"]["ran"]
        assert passes["threads"]["error"] == 0
        assert passes["structural"]["ran"]
        assert not passes["contract"]["ran"]

    def test_default_model_entries_exist(self):
        # A renamed handler would silently hollow out T001; pin every
        # declared reader entry to a real function in the index.
        from pathlib import Path

        import repro

        index = EffectIndex.from_package(Path(repro.__file__).resolve().parent)
        for entry in DEFAULT_MODEL.reader_entries:
            assert entry in index.functions, f"stale reader entry {entry}"

    def test_sharded_tier_is_covered(self):
        # The router/worker boundary must stay inside the thread model —
        # writer-owned (T001 proves no reader entry reaches it) and, for
        # the router facade, escape-checked like the plain session
        # (T002) — and the classes must actually exist in the index so
        # the coverage is not vacuous after a rename.
        from pathlib import Path

        import repro

        index = EffectIndex.from_package(Path(repro.__file__).resolve().parent)
        for cls in ("ShardedSession", "ShardWorker"):
            assert cls in DEFAULT_MODEL.guarded_classes, f"{cls} not writer-owned"
            assert cls in index.classes, f"{cls} missing from effect index"
        assert "ShardedSession" in DEFAULT_MODEL.shared_classes
        assert any(".router." in q for q in index.functions)
        assert any(".worker." in q for q in index.functions)


# ======================================================================
# Dynamic sanitizer: primitives
# ======================================================================
@pytest.fixture(autouse=True)
def _tsan_restore():
    """Leave the sanitizer exactly as found (CI arms it via REPRO_TSAN)."""
    was = tsan.enabled()
    yield
    if was:
        tsan.enable()
    else:
        tsan.disable()
    tsan.reset()


@pytest.fixture
def armed():
    tsan.enable()
    yield


class TestSanitizerPrimitives:
    def test_disabled_is_a_noop(self):
        tsan.disable()
        assert not tsan.enabled()

        class Obj:
            pass

        obj = Obj()
        tsan.claim_owner(obj)
        assert tsan.owner_of(obj) is None  # nothing recorded
        tsan.apply_starting(obj, 99)  # would raise if armed

    def test_ownership_blocks_other_threads(self, armed):
        class Obj:
            pass

        obj = Obj()
        tsan.claim_owner(obj, role="writer")
        assert tsan.owner_of(obj) == threading.current_thread().name
        caught = []

        def attack():
            try:
                tsan._mutation_enter(obj, "session.update")
            except tsan.SanitizerViolation as exc:
                caught.append(str(exc))

        thread = threading.Thread(target=attack)
        thread.start()
        thread.join()
        assert caught and "owns" in caught[0]
        tsan.release_owner(obj)
        assert tsan.owner_of(obj) is None

    def test_double_claim_from_another_thread_raises(self, armed):
        class Obj:
            pass

        obj = Obj()
        tsan.claim_owner(obj, role="writer")
        caught = []

        def second_writer():
            try:
                tsan.claim_owner(obj, role="writer")
            except tsan.SanitizerViolation as exc:
                caught.append(str(exc))

        thread = threading.Thread(target=second_writer)
        thread.start()
        thread.join()
        assert caught and "two single-writers" in caught[0]

    def test_overlapping_mutations_without_owner(self, armed):
        class Obj:
            pass

        obj = Obj()
        entered = threading.Event()
        release = threading.Event()
        caught = []

        def slow_mutator():
            tsan._mutation_enter(obj, "session.update")
            entered.set()
            release.wait(5)
            tsan._mutation_exit(obj)

        thread = threading.Thread(target=slow_mutator)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(tsan.SanitizerViolation, match="overlapping"):
                tsan._mutation_enter(obj, "session.update")
        finally:
            release.set()
            thread.join()

    def test_reentrant_mutation_same_thread_ok(self, armed):
        class Obj:
            pass

        obj = Obj()
        tsan._mutation_enter(obj, "session.close")
        tsan._mutation_enter(obj, "session.register")  # close → checkpoint path
        tsan._mutation_exit(obj)
        tsan._mutation_exit(obj)

    def test_wal_ordering(self, armed):
        class Obj:
            pass

        obj = Obj()
        with pytest.raises(tsan.SanitizerViolation, match="write-ahead"):
            tsan.apply_starting(obj, 1)  # nothing appended yet
        tsan.wal_logged(obj, 1)
        tsan.apply_starting(obj, 1)  # appended: fine
        with pytest.raises(tsan.SanitizerViolation, match="write-ahead"):
            tsan.apply_starting(obj, 2)  # ahead of the log
        with pytest.raises(tsan.SanitizerViolation, match="racing appends"):
            tsan.wal_logged(obj, 1)  # duplicate seq
        tsan.apply_starting(obj, 5, durable=False)  # no log, trivially fine

    def test_publish_region_serial_and_monotonic(self, armed):
        class Store:
            pass

        store = Store()
        with tsan.publish_region(store, 1):
            pass
        with pytest.raises(tsan.SanitizerViolation, match="regresses"):
            with tsan.publish_region(store, 0):
                pass
        inside = threading.Event()
        release = threading.Event()
        caught = []

        def publisher():
            with tsan.publish_region(store, 2):
                inside.set()
                release.wait(5)

        thread = threading.Thread(target=publisher)
        thread.start()
        assert inside.wait(5)
        try:
            with pytest.raises(tsan.SanitizerViolation, match="concurrent publishers"):
                with tsan.publish_region(store, 3):
                    pass
        finally:
            release.set()
            thread.join()

    def test_enabled_scope_restores(self):
        tsan.disable()
        assert not tsan.enabled()
        with tsan.enabled_scope():
            assert tsan.enabled()
        assert not tsan.enabled()


# ======================================================================
# Dynamic sanitizer: against the real session and service
# ======================================================================
def _service(**config):
    graph = from_edges([(0, 1), (1, 2)], directed=True, weights=[1.0, 1.0])
    session = DynamicGraphSession(graph)
    session.register("d", "SSSP", query=0)
    return QueryService(session, config=ServiceConfig(**config))


class TestSanitizerOnRealCode:
    def test_intentional_race_is_caught(self, armed):
        """The quarantined-by-design race: mutate the session directly
        while the service writer thread owns it."""
        service = _service()
        service.start()
        try:
            deadline = time.monotonic() + 5
            while tsan.owner_of(service.session) is None:
                assert time.monotonic() < deadline, "writer never claimed"
                time.sleep(0.005)
            with pytest.raises(tsan.SanitizerViolation, match="owns"):
                service.session.update(Batch([EdgeInsertion(2, 3, 1.0)]))
        finally:
            service.close()

    def test_ownership_released_after_close(self, armed):
        service = _service()
        service.start()
        service.update([EdgeInsertion(2, 3, 1.0)])
        service.close()
        assert tsan.owner_of(service.session) is None
        # post-close mutation from this thread is single-threaded again
        with pytest.raises(ReproError):
            service.update([EdgeInsertion(3, 4, 1.0)])  # ServiceClosed

    def test_serve_tier_runs_clean_under_tsan(self, armed):
        service = _service()
        service.start()
        try:
            service.update([EdgeInsertion(2, 3, 1.0)])
            service.register("reach", "Reach", query=0)
            snap = service.read("d")
            assert snap.answer[3] == pytest.approx(3.0)
            service.update([EdgeInsertion(3, 4, 1.0)])
            assert service.watch("d", after_version=0, timeout=5) is not None
            service.stats()
            service.unregister("reach")
        finally:
            service.close()

    def test_durable_session_orders_wal_before_apply(self, armed, tmp_path):
        from repro.resilience import SessionConfig

        graph = from_edges([(0, 1)], directed=True, weights=[1.0])
        session = DynamicGraphSession(
            graph, config=SessionConfig(directory=tmp_path)
        )
        session.register("d", "SSSP", query=0)
        session.update(Batch([EdgeInsertion(1, 2, 1.0)]))
        session.update_stream([Batch([EdgeInsertion(2, 3, 1.0)])])
        session.close()
        recovered = DynamicGraphSession.recover(tmp_path)
        assert recovered.answer("d")[3] == pytest.approx(3.0)
        recovered.close()
