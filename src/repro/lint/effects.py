"""Whole-program effect extraction for the concurrency lint pass.

The T-rule family (:mod:`repro.lint.concurrency`) needs to know, for
every function in the library, *what it does to shared state*: which
objects it mutates, which locks it acquires (and in what nesting order),
whether it can block, whether it reaches the WAL append, and whether it
invokes user listeners.  This module computes that — an
:class:`EffectIndex` — from source alone, with :mod:`ast`:

* every module under the package is parsed into
  :class:`FunctionEffects` records (one per function/method, nested
  closures folded into their enclosing record with lexical lock context
  preserved);
* each class's ``__init__`` is scanned for attribute types
  (``self._lock = threading.Lock()`` marks ``_lock`` a lock;
  ``self._queue = queue.Queue(...)`` marks a blocking queue;
  ``self._snapshots: Dict = {}`` marks a plain container), giving the
  call-resolution and lock-identification layers something better than
  names to go on;
* call sites are resolved to candidate callees: precisely through
  ``self``/typed attributes/typed locals, by token fallback otherwise —
  except for common container-method tokens (``append``, ``get``, ...)
  on untyped receivers, which are assumed to be builtin containers so a
  ``list.append`` never aliases :meth:`WriteAheadLog.append`.

The analysis is deliberately a *linter*, not a verifier: it
over-approximates where cheap (token fallback) and under-approximates
where the over-approximation would drown the signal (container tokens,
locally-constructed objects — an object a function just built or
``.copy()``-ed is thread-private, so mutating it is not an effect on
shared state).  Every heuristic is documented at its use site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

# ----------------------------------------------------------------------
# Classification tables
# ----------------------------------------------------------------------

#: Constructor tokens that make an attribute / local a lock (the id the
#: with-block tracker uses).  Condition is a lock: ``with cond:``
#: acquires its underlying lock.
LOCK_TYPES = frozenset({"Lock", "RLock", "Condition"})

#: Constructor tokens whose instances block on ``.wait`` / ``.get`` /
#: ``.put`` / ``.join``.
BLOCKING_TYPES = frozenset({"Event", "Queue", "Thread", "Semaphore", "BoundedSemaphore"})

#: Builtin container constructors: receivers of this type get their
#: method calls treated as builtin (no user-code fallback resolution).
CONTAINER_TYPES = frozenset({"dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict"})

#: Tokens that are overwhelmingly builtin-container methods.  An
#: attribute call ``x.append(...)`` on an *untyped* receiver is assumed
#: to be a container, never resolved to e.g. ``WriteAheadLog.append`` —
#: otherwise every ``list.append`` under a lock would look like fsync.
CONTAINER_METHODS = frozenset({
    "append", "extend", "add", "discard", "remove", "pop", "popleft",
    "clear", "update", "get", "items", "keys", "values", "setdefault",
    "sort", "insert", "count", "index", "copy", "join", "split",
    "strip", "encode", "decode", "format", "startswith", "endswith",
})

#: Call tokens that block outright, wherever they appear.
BLOCKING_CALLS = frozenset({
    "sleep", "fsync", "join", "select", "accept", "recv", "send",
    "sendall", "readline", "read", "connect", "serve_forever",
})

#: Methods that block when invoked on a blocking-typed receiver
#: (``queue.Queue.get``/``put`` block; ``get_nowait`` does not).
BLOCKING_METHODS = frozenset({"get", "put", "wait"})

#: Graph-mutating method tokens (mirrors lint/ast_checks.py).
GRAPH_MUTATORS = frozenset({
    "add_node", "ensure_node", "remove_node", "set_node_label",
    "add_edge", "remove_edge", "set_weight", "set_edge_label",
})

#: Parameter/variable names whose type is conventional across the
#: library.  Overridable per index (tests pass their own).
DEFAULT_HINTS: Dict[str, str] = {
    "session": "DynamicGraphSession",
    "graph": "Graph",
    "graph_new": "Graph",
    "graph_old": "Graph",
    "replica": "Graph",
    "scratch": "Graph",
    "state": "FixpointState",
    "store": "SnapshotStore",
    "service": "QueryService",
    "wal": "WriteAheadLog",
    "registered": "RegisteredQuery",
    "snapshot": "AnswerSnapshot",
    "snap": "AnswerSnapshot",
}

#: ``# lint: allow(T001): reason`` pragma (suppression at the finding line).
PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\((?P<rule>[A-Z]\d{3})\)(?:\s*:\s*(?P<reason>.*))?")


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression inside a function, with its lexical context."""

    token: str                      # the invoked name (last path segment)
    chain: Tuple[str, ...]          # full dotted path, e.g. ("self", "_wal", "append")
    line: int
    locks: FrozenSet[str]           # lock ids lexically held at the call
    receiver_type: Optional[str]    # inferred type of the receiver, if any
    arg0_private: bool = False      # first positional arg is thread-private
    receiver_private: bool = False  # the receiver object is thread-private
    is_listener: bool = False       # the callee is a user listener


@dataclass
class AttrAccess:
    """One attribute (or subscript-through-attribute) access."""

    owner: str                      # "ClassName" or "func.qualname:localname"
    attr: str
    line: int
    locks: FrozenSet[str]
    is_write: bool


@dataclass
class FunctionEffects:
    """Everything one function does that the T-rules care about."""

    qualname: str                   # "module.Class.method" / "module.func"
    module: str
    cls: Optional[str]
    name: str
    path: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    accesses: List[AttrAccess] = field(default_factory=list)
    acquires: List[Tuple[str, int]] = field(default_factory=list)
    nested_locks: Set[Tuple[str, str]] = field(default_factory=set)  # lexical (outer, inner)
    blocking: List[Tuple[str, int, FrozenSet[str]]] = field(default_factory=list)
    frozen_writes: List[Tuple[str, int]] = field(default_factory=list)
    escapes: List[Tuple[str, int]] = field(default_factory=list)
    self_stores: Dict[str, Tuple[str, int]] = field(default_factory=dict)  # local -> (attr, line)
    mutates_classes: Set[str] = field(default_factory=set)  # own, direct
    is_init: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class ClassInfo:
    """Per-class facts extracted from the class body and ``__init__``."""

    name: str
    module: str
    path: str
    line: int
    frozen: bool = False
    bases: List[str] = field(default_factory=list)
    attr_types: Dict[str, str] = field(default_factory=dict)
    mutable_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname

    @property
    def lock_attrs(self) -> Set[str]:
        return {a for a, t in self.attr_types.items() if t in LOCK_TYPES}


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` → ("a", "b", "c"); None for non-name-rooted expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


#: typing-module aliases normalized to their runtime container.
_TYPING_CONTAINERS = {"Dict": "dict", "List": "list", "Set": "set", "DefaultDict": "defaultdict"}


def _annotation_type(annotation: Optional[ast.AST], known: Dict[str, "ClassInfo"]) -> Optional[str]:
    """Best-effort type token from an annotation (``Optional[WriteAheadLog]``
    → WriteAheadLog, ``Dict[str, AnswerSnapshot]`` → dict).  Container
    heads win over element types; first known class otherwise."""
    if annotation is None:
        return None
    tokens: List[str] = []
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation.value)
    else:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                tokens.append(node.id)
            elif isinstance(node, ast.Attribute):
                tokens.append(node.attr)
    for token in tokens:
        if token in _TYPING_CONTAINERS:
            return _TYPING_CONTAINERS[token]
        if token in CONTAINER_TYPES or token in LOCK_TYPES or token in BLOCKING_TYPES:
            return token
    for token in tokens:
        if token in known:
            return token
    return None


def _ctor_token(value: ast.AST) -> Optional[str]:
    """The class token of a constructor call, e.g. ``threading.Lock()`` → Lock."""
    if isinstance(value, ast.Call):
        chain = _chain(value.func)
        if chain:
            return chain[-1]
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    return None


class _FunctionScanner(ast.NodeVisitor):
    """Walks one function body, tracking lexically-held locks and local
    types; nested ``def``s are folded into the same record (their lock
    context at the definition point is empty — they run later, on
    whatever thread calls them — but their *local* locks still track)."""

    def __init__(
        self,
        effects: FunctionEffects,
        index: "EffectIndex",
        self_class: Optional[ClassInfo],
        params: List[str],
        outer_types: Optional[Dict[str, str]] = None,
        outer_private: Optional[Set[str]] = None,
    ) -> None:
        self.fx = effects
        self.index = index
        self.self_class = self_class
        self.held: List[str] = []
        self.local_types: Dict[str, str] = dict(outer_types or {})
        self.private: Set[str] = set(outer_private or ())
        for p in params:
            hint = index.hints.get(p)
            if hint:
                self.local_types.setdefault(p, hint)
        if self_class is not None:
            self.local_types["self"] = self_class.name

    # -- type lookup ----------------------------------------------------
    def _type_of_chain(self, chain: Tuple[str, ...]) -> Optional[str]:
        """Best-effort type of a dotted receiver path (depth <= 2)."""
        root_type = self.local_types.get(chain[0])
        if len(chain) == 1:
            return root_type
        if root_type:
            info = self.index.classes.get(root_type)
            if info is not None:
                t = info.attr_types.get(chain[1])
                if len(chain) == 2:
                    return t
                if t:  # one more hop through a typed attribute
                    inner = self.index.classes.get(t)
                    if inner is not None and len(chain) == 3:
                        return inner.attr_types.get(chain[2])
        return None

    def _lock_id(self, expr: ast.AST) -> Optional[str]:
        chain = _chain(expr)
        if not chain:
            return None
        if len(chain) == 1:
            if self.local_types.get(chain[0]) in LOCK_TYPES:
                return f"{self.fx.qualname}.{chain[0]}"
            return None
        t = self._type_of_chain(chain[:-1])
        info = self.index.classes.get(t) if t else None
        if info is not None and chain[-1] in info.lock_attrs:
            return f"{info.name}.{chain[-1]}"
        # direct self._lock with untracked class: fall back to LOCK hints
        if chain[0] == "self" and self.self_class is not None:
            if chain[-1] in self.self_class.lock_attrs:
                return f"{self.self_class.name}.{chain[-1]}"
        return None

    # -- scoping --------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        ids = [self._lock_id(item.context_expr) for item in node.items]
        acquired = [i for i in ids if i]
        for lock in acquired:
            self.fx.acquires.append((lock, node.lineno))
            for outer in self.held:
                if outer != lock:
                    self.fx.nested_locks.add((outer, lock))
        # non-lock context managers still get their expressions visited
        for item in node.items:
            self.visit(item.context_expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested closure: runs on some later thread — analyze its body in
        # the enclosing record but with an *empty* held-lock stack.
        saved = self.held
        self.held = []
        for a in node.args.args:
            hint = self.index.hints.get(a.arg)
            if hint:
                self.local_types.setdefault(a.arg, hint)
            token = _annotation_type(a.annotation, self.index.classes)
            if token:
                self.local_types[a.arg] = token
        for stmt in node.body:
            self.visit(stmt)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    # -- assignments: local typing + write accesses ---------------------
    def _note_local(self, name: str, value: ast.AST) -> None:
        token = _ctor_token(value)
        if token is None:
            # alias of a typed expression keeps its type but not privacy
            chain = _chain(value)
            if chain:
                t = self._type_of_chain(chain)
                if t:
                    self.local_types[name] = t
                if chain[0] in self.private and len(chain) == 1:
                    self.private.add(name)
            return
        if token == "copy" and isinstance(value, ast.Call):
            src = _chain(value.func)
            if src and len(src) >= 2:  # x = y.copy(): private copy, same type
                t = self._type_of_chain(src[:-1])
                if t:
                    self.local_types[name] = t
                self.private.add(name)
                return
        if token in self.index.classes or token in CONTAINER_TYPES or token in LOCK_TYPES or token in BLOCKING_TYPES:
            self.local_types[name] = token
            if token in self.index.classes or token in CONTAINER_TYPES:
                self.private.add(name)
        elif token == "__new__":
            src = _chain(value.func)  # cls.__new__(cls): private fresh object
            if src:
                self.private.add(name)

    def _record_access(self, chain: Tuple[str, ...], line: int, is_write: bool) -> None:
        root = chain[0]
        attr = chain[1] if len(chain) > 1 else None
        if attr is None:
            return
        if root == "cls":
            return  # class object: not instance state
        if root == "self" and self.self_class is not None:
            owner = self.self_class.name
        else:
            # locals are grouped per enclosing function — including
            # "private" constructed ones, because closures hand them to
            # other threads (loadgen's report); T003's locked+bare filter
            # keeps genuinely single-threaded locals quiet.
            owner = f"{self.fx.qualname}:{root}"
        self.fx.accesses.append(AttrAccess(owner, attr, line, frozenset(self.held), is_write))

    def _record_write_target(self, target: ast.AST) -> None:
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        chain = _chain(node)
        if chain is None:
            for child in ast.iter_child_nodes(target):
                self.visit(child)
            return
        if len(chain) >= 2:
            self._record_access(chain, target.lineno, is_write=True)
            self._classify_mutation(chain, target.lineno)
        elif isinstance(target, ast.Subscript):
            # bare-name subscript write, e.g. writes_left[0] = ...
            self._record_access((chain[0], "[]"), target.lineno, is_write=True)
        # visit index expressions for reads
        if isinstance(target, ast.Subscript):
            self.visit(target.slice)

    def _classify_mutation(self, chain: Tuple[str, ...], line: int) -> None:
        root = chain[0]
        if root in self.private:
            return
        if root == "self":
            if self.self_class is not None and not self.fx.is_init:
                self.fx.mutates_classes.add(self.self_class.name)
                if self.self_class.frozen:
                    self.fx.frozen_writes.append((".".join(chain), line))
            return
        t = self.local_types.get(root)
        if t and t in self.index.classes and not self.fx.is_init:
            self.fx.mutates_classes.add(t)
            if self.index.classes[t].frozen:
                self.fx.frozen_writes.append((".".join(chain), line))

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._note_local(target.id, node.value)
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, (ast.Attribute, ast.Subscript)):
                        self._record_write_target(elt)
            else:
                if isinstance(target, ast.Attribute) and isinstance(node.value, ast.Name):
                    tchain = _chain(target)
                    if tchain is not None and tchain[0] == "self" and len(tchain) == 2:
                        # self.X = local: the local now aliases shared
                        # state (escape detection cares when it is later
                        # returned without a defensive copy)
                        self.fx.self_stores[node.value.id] = (tchain[1], node.lineno)
                self._record_write_target(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            if isinstance(node.target, ast.Name):
                self._note_local(node.target.id, node.value)
            else:
                self._record_write_target(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._record_write_target(node.target)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._record_write_target(target)

    # -- reads ----------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _chain(node)
        if chain and isinstance(node.ctx, ast.Load) and len(chain) >= 2:
            self._record_access(chain[:2], node.lineno, is_write=False)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _chain(node.func)
        held = frozenset(self.held)
        if chain is not None:
            token = chain[-1]
            receiver_type = self._type_of_chain(chain[:-1]) if len(chain) > 1 else None
            if len(chain) >= 3 or (len(chain) == 2 and chain[0] == "self"):
                # the receiver itself is read: self._snapshots.get(...)
                # touches _snapshots exactly like list(self._snapshots)
                self._record_access(chain[:2], node.lineno, is_write=False)
            arg0_private = False
            if node.args:
                a0 = node.args[0]
                if isinstance(a0, ast.Name) and a0.id in self.private:
                    arg0_private = True
            is_listener = "listener" in token.lower() or (
                len(chain) == 1 and "listener" in chain[0].lower()
            )
            site = CallSite(
                token=token,
                chain=chain,
                line=node.lineno,
                locks=held,
                receiver_type=receiver_type,
                arg0_private=arg0_private,
                receiver_private=len(chain) > 1 and chain[0] in self.private,
                is_listener=is_listener,
            )
            self.fx.calls.append(site)
            self._classify_blocking(site)
            self._classify_call_mutation(site)
            if token == "__setattr__" and chain[0] == "object":
                # object.__setattr__ on a frozen instance = frozen write
                if node.args:
                    target = _chain(node.args[0])
                    t = self._type_of_chain(target) if target else None
                    if t and t in self.index.classes and self.index.classes[t].frozen:
                        self.fx.frozen_writes.append((f"object.__setattr__ on {t}", node.lineno))
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if chain is None:
            self.visit(node.func)

    def _classify_blocking(self, site: CallSite) -> None:
        token = site.token
        if token == "wait" and len(site.chain) >= 2:
            # cond.wait() releases the held condition — not "blocking
            # under a lock" in the deadlock sense when that condition is
            # exactly the lock we hold.
            lock = self._lock_id_of_prefix(site.chain[:-1])
            if lock is not None and lock in site.locks:
                return
        if token in BLOCKING_CALLS:
            self.fx.blocking.append((token, site.line, site.locks))
            return
        if token in BLOCKING_METHODS and site.receiver_type in BLOCKING_TYPES:
            self.fx.blocking.append((f"{site.receiver_type}.{token}", site.line, site.locks))
        elif token == "wait" and len(site.chain) >= 2 and site.receiver_type is None:
            # untyped .wait(): assume an Event/Condition handle (done.wait)
            self.fx.blocking.append((token, site.line, site.locks))

    def _lock_id_of_prefix(self, prefix: Tuple[str, ...]) -> Optional[str]:
        t = self._type_of_chain(prefix[:-1]) if len(prefix) > 1 else None
        if len(prefix) == 1:
            if self.local_types.get(prefix[0]) in LOCK_TYPES:
                return f"{self.fx.qualname}.{prefix[0]}"
            return None
        info = self.index.classes.get(t) if t else None
        if info is not None and prefix[-1] in info.lock_attrs:
            return f"{info.name}.{prefix[-1]}"
        if prefix[0] == "self" and self.self_class is not None and prefix[-1] in self.self_class.lock_attrs:
            return f"{self.self_class.name}.{prefix[-1]}"
        return None

    def _classify_call_mutation(self, site: CallSite) -> None:
        """A graph-mutator method call mutates its receiver."""
        if site.token not in GRAPH_MUTATORS or len(site.chain) < 2:
            return
        root = site.chain[0]
        if root in self.private:
            return
        if root == "self" and self.self_class is not None:
            if not self.fx.is_init:
                self.fx.mutates_classes.add(self.self_class.name)
            return
        t = self._type_of_chain(site.chain[:-1])
        target = t if t in self.index.classes else "Graph"
        if not self.fx.is_init:
            self.fx.mutates_classes.add(target)

    # -- returns (escape detection input) -------------------------------
    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            chain = _chain(node.value)
            if chain:
                self.fx.escapes.append((".".join(chain), node.lineno))
            self.visit(node.value)


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
class EffectIndex:
    """All :class:`FunctionEffects` and :class:`ClassInfo` of a package."""

    def __init__(self, hints: Optional[Dict[str, str]] = None) -> None:
        self.functions: Dict[str, FunctionEffects] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.by_token: Dict[str, List[str]] = {}
        self.pragmas: Dict[str, Dict[int, List[Tuple[str, str]]]] = {}
        self.comment_lines: Dict[str, Set[int]] = {}
        self.hints: Dict[str, str] = dict(DEFAULT_HINTS if hints is None else hints)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_package(
        cls, root: Path, package: str = "repro", hints: Optional[Dict[str, str]] = None
    ) -> "EffectIndex":
        """Index every ``.py`` module under ``root`` (the package dir)."""
        index = cls(hints=hints)
        root = Path(root)
        sources: Dict[str, Tuple[str, str]] = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).with_suffix("")
            parts = [package] + [p for p in rel.parts if p != "__init__"]
            module = ".".join(parts)
            sources[module] = (str(path), path.read_text())
        index._build(sources)
        return index

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], hints: Optional[Dict[str, str]] = None
    ) -> "EffectIndex":
        """Index in-memory ``{module name: source}`` (test fixtures)."""
        index = cls(hints=hints)
        index._build({name: (f"<{name}>", text) for name, text in sources.items()})
        return index

    def _build(self, sources: Dict[str, Tuple[str, str]]) -> None:
        trees: Dict[str, Tuple[str, ast.Module]] = {}
        for module, (path, text) in sources.items():
            self._scan_pragmas(path, text)
            trees[module] = (path, ast.parse(text))
        # pass 1: register every class (so cross-module constructor and
        # annotation tokens resolve), then scan __init__ bodies for types
        class_nodes: List[Tuple[str, str, ast.ClassDef]] = []
        for module, (path, tree) in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    class_nodes.append((module, path, node))
                    self._scan_class(module, path, node)
        for module, path, node in class_nodes:
            info = self.classes[node.name]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name in ("__init__", "__post_init__"):
                        self._scan_init(info, item)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    # dataclass field: its annotated type; container fields
                    # (incl. field(default_factory=list)) are mutable
                    token = _annotation_type(item.annotation, self.classes)
                    if token:
                        info.attr_types.setdefault(item.target.id, token)
                        if token in CONTAINER_TYPES:
                            info.mutable_attrs.add(item.target.id)
        # pass 2: function bodies
        for module, (path, tree) in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._scan_function(module, path, node, None)
                elif isinstance(node, ast.ClassDef):
                    info = self.classes.get(node.name)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._scan_function(module, path, item, info)

    def _scan_pragmas(self, path: str, text: str) -> None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.lstrip().startswith("#"):
                self.comment_lines.setdefault(path, set()).add(lineno)
            match = PRAGMA_RE.search(line)
            if match:
                reason = (match.group("reason") or "").strip()
                self.pragmas.setdefault(path, {}).setdefault(lineno, []).append(
                    (match.group("rule"), reason)
                )

    def _scan_class(self, module: str, path: str, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=module, path=path, line=node.lineno)
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                dchain = _chain(deco.func)
                if dchain and dchain[-1] == "dataclass":
                    for kw in deco.keywords:
                        if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                            info.frozen = bool(kw.value.value)
        for base in node.bases:
            bchain = _chain(base)
            if bchain:
                info.bases.append(bchain[-1])
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = f"{module}.{node.name}.{item.name}"
        self.classes[info.name] = info

    def _known_token(self, token: Optional[str]) -> Optional[str]:
        """A type token worth recording (indexed class or stdlib category)."""
        if token and (
            token in self.classes
            or token in CONTAINER_TYPES
            or token in LOCK_TYPES
            or token in BLOCKING_TYPES
        ):
            return token
        return None

    def _scan_init(self, info: ClassInfo, fn: ast.FunctionDef) -> None:
        for node in ast.walk(fn):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value, annotation = [node.target], node.value, node.annotation
            for target in targets:
                chain = _chain(target)
                if not chain or chain[0] != "self" or len(chain) != 2:
                    continue
                attr = chain[1]
                token = self._known_token(_ctor_token(value)) if value is not None else None
                if token is None and isinstance(value, ast.Name):
                    token = self._known_token(self.hints.get(value.id))
                if token is None:
                    token = _annotation_type(annotation, self.classes)
                if token:
                    info.attr_types.setdefault(attr, token)
                    if token in CONTAINER_TYPES:
                        info.mutable_attrs.add(attr)

    def _scan_function(
        self, module: str, path: str, fn: ast.FunctionDef, cls_info: Optional[ClassInfo]
    ) -> None:
        qual = f"{module}.{cls_info.name}.{fn.name}" if cls_info else f"{module}.{fn.name}"
        fx = FunctionEffects(
            qualname=qual,
            module=module,
            cls=cls_info.name if cls_info else None,
            name=fn.name,
            path=path,
            line=fn.lineno,
            is_init=fn.name in ("__init__", "__post_init__", "__new__"),
        )
        args = list(fn.args.args)
        if cls_info and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        scanner = _FunctionScanner(fx, self, cls_info, [a.arg for a in args])
        for a in args:
            # an explicit annotation beats the name-based hint
            token = _annotation_type(a.annotation, self.classes)
            if token:
                scanner.local_types[a.arg] = token
        for stmt in fn.body:
            scanner.visit(stmt)
        self.functions[qual] = fx
        self.by_token.setdefault(fn.name, []).append(qual)

    # -- resolution -----------------------------------------------------
    def _class_method(self, cls_name: str, method: str) -> Optional[str]:
        seen: Set[str] = set()
        stack = [cls_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def resolve(self, site: CallSite, caller: FunctionEffects) -> List[FunctionEffects]:
        """Candidate callees of one call site (possibly empty)."""
        token = site.token
        # constructor call: Class(...) → Class.__init__
        if token in self.classes and len(site.chain) <= 2:
            qual = self._class_method(token, "__init__")
            return [self.functions[qual]] if qual and qual in self.functions else []
        if len(site.chain) == 1:
            # bare name: same-module function first, else global token match
            qual = f"{caller.module}.{token}"
            if qual in self.functions:
                return [self.functions[qual]]
            return [
                self.functions[q]
                for q in self.by_token.get(token, ())
                if self.functions[q].cls is None
            ]
        receiver = site.chain[:-1]
        if receiver == ("self",) and caller.cls is not None:
            qual = self._class_method(caller.cls, token)
            return [self.functions[qual]] if qual and qual in self.functions else []
        rtype = site.receiver_type
        if rtype:
            if rtype in CONTAINER_TYPES or rtype in LOCK_TYPES or rtype in BLOCKING_TYPES:
                return []  # builtin/stdlib receiver: no user-code callee
            qual = self._class_method(rtype, token)
            if qual and qual in self.functions:
                return [self.functions[qual]]
            return []
        if token in CONTAINER_METHODS:
            return []  # untyped receiver + container token: assume builtin
        # untyped receiver: any method of that name, never a module-level
        # function (``registered.batch.run`` is not the module's ``run``)
        return [
            self.functions[q]
            for q in self.by_token.get(token, ())
            if self.functions[q].cls is not None
        ]
