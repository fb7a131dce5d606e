"""Launch ``repro serve`` as a process and drive it open loop.

The generator is one thread multiplexing a few connections with
:mod:`selectors`.  Requests are encoded before the timed phase and
responses are kept as bytes; only a sample of the read answers is
decoded, after the phase.  Latency counts from each request's scheduled
send time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from inputs import Request

OK_PREFIX = b'{"ok": true'
HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# Wire encoding (the WAL update encoding of repro.serve.protocol)
# ----------------------------------------------------------------------
def encode_op(op) -> Dict:
    kind = op[0]
    if kind == "+e":
        return {"op": "+e", "u": op[1], "v": op[2], "w": {"f": op[3]}, "l": None}
    if kind == "-e":
        return {"op": "-e", "u": op[1], "v": op[2]}
    raise ValueError(f"unknown op {op!r}")


def encode_request(request: Request) -> bytes:
    if request.kind == "read":
        doc = {"op": "query", "name": request.query}
    else:
        doc = {"op": "update", "ops": [encode_op(op) for op in request.ops]}
    return json.dumps(doc).encode() + b"\n"


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    found, stack = [], [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as f:
                    kids = [int(k) for k in f.read().split()]
            except OSError:
                continue
            found += kids
            stack += kids
    return found


def _running(pid: int) -> bool:
    """The process exists and has not exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def cpu_seconds(pids: Sequence[int]) -> float:
    """utime + stime of live processes, from ``/proc/<pid>/stat``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / ticks


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    setup_s: float

    def tree(self) -> List[int]:
        return [self.process.pid] + _descendants(self.process.pid)

    def cpu(self) -> float:
        return cpu_seconds(self.tree())

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT (clean drain, trace flush), then kill whatever is left."""
        tree = self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout)
        for pid in tree[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        # Orphaned workers are not our children, so wait on /proc instead.
        deadline = time.perf_counter() + timeout
        while any(_running(pid) for pid in tree[1:]):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server processes {tree[1:]} outlived the server")
            time.sleep(0.01)
        if self.process.stdout is not None:
            self.process.stdout.close()


def launch(root: Path, argv: List[str], cpus: Set[int], log: Path,
           trace_path: Optional[Path] = None, timeout: float = 60.0) -> Server:
    """Start ``repro serve`` (or the traced launcher) pinned to ``cpus``
    and wait for its ``serving on HOST:PORT`` line; ``setup_s`` is spawn
    to that line.  The server's stderr goes to ``log``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    if trace_path is None:
        cmd = [sys.executable, "-m", "repro"] + argv
    else:
        cmd = [sys.executable, str(HERE / "traced.py"), str(trace_path)] + argv

    def prepare() -> None:
        # A shell that starts a job in the background has it ignore
        # SIGINT, and an ignored SIGINT survives exec; restore the default
        # so the server can still be stopped with it.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.sched_setaffinity(0, cpus)

    with open(log, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err, preexec_fn=prepare
        )
    server = Server(process, 0, 0.0)
    ready = select.select([process.stdout], [], [], timeout)[0]
    line = process.stdout.readline().decode() if ready else ""
    if not line.startswith("serving on"):
        server.stop()
        raise RuntimeError(f"server did not start: {line!r} {log.read_text()[-2000:]}")
    server.setup_s = time.perf_counter() - started
    server.port = int(line.split()[2].split(":")[1])
    return server


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    sent: List[float] = field(default_factory=list)       #: actual send times
    done: List[float] = field(default_factory=list)       #: completion times
    ok: List[bool] = field(default_factory=list)
    kept: Dict[int, bytes] = field(default_factory=dict)  #: raw responses kept
    start: float = 0.0                                    #: phase origin
    marks: List[object] = field(default_factory=list)     #: on_mark(k) at mark k


class _Conn:
    def __init__(self, port: int, selector: selectors.BaseSelector, index: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = b""
        self.inbuf = b""
        self.pending: List[int] = []
        self.head = 0
        self.selector = selector
        selector.register(self.sock, selectors.EVENT_READ, index)
        self.quickack()

    def quickack(self) -> None:
        # The server writes without TCP_NODELAY, so a reply's tail waits
        # for our ACK; a delayed ACK would ride on the *next* request and
        # every latency would read as the send spacing.  Linux clears the
        # flag after each ACK, so it is re-armed per receive.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                sent = 0
            self.out = self.out[sent:]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.selector.modify(self.sock, events, self.selector.get_key(self.sock).data)

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


def drive(port: int, schedule: List[Request], payloads: List[bytes], keep: Set[int],
          connections: int, marks: Sequence[float] = (), on_mark=None,
          timeout: float = 60.0) -> PhaseResult:
    """Send ``payloads[i]`` at ``schedule[i].at`` seconds on connection
    ``schedule[i].conn``; collect completion times and the raw responses
    of requests in ``keep`` (writes are always kept).  At each time in
    ``marks`` (seconds from the phase origin) ``on_mark(k)`` is called
    with the mark's index and its result kept in order."""
    n = len(schedule)
    result = PhaseResult(sent=[0.0] * n, done=[0.0] * n, ok=[False] * n)
    # select(2) takes a microsecond timeout (epoll rounds up to whole
    # milliseconds), so sends leave on time without busy polling.
    selector = selectors.SelectSelector()
    conns = [_Conn(port, selector, i) for i in range(connections)]
    keep = set(keep) | {i for i, r in enumerate(schedule) if r.kind == "write"}
    marks = sorted(marks)
    completed = 0
    nxt = 0
    clock = time.perf_counter
    start = clock() + 0.05
    result.start = start
    give_up = start + (schedule[-1].at if schedule else 0.0) + timeout
    try:
        while completed < n:
            now = clock()
            while marks and start + marks[0] <= now:
                result.marks.append(on_mark(len(result.marks)))
                marks.pop(0)
            while nxt < n and start + schedule[nxt].at <= now:
                conn = conns[schedule[nxt].conn]
                conn.out += payloads[nxt]
                conn.pending.append(nxt)
                result.sent[nxt] = now
                nxt += 1
                conn.flush()
            if now > give_up:
                raise RuntimeError(f"{n - completed} requests unanswered after {timeout}s")
            wait = start + schedule[nxt].at - now if nxt < n else 0.5
            if marks:
                wait = min(wait, start + marks[0] - now)
            for key, mask in selector.select(max(0.0, wait)):
                conn = conns[key.data]
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if not mask & selectors.EVENT_READ:
                    continue
                data = conn.sock.recv(1 << 20)
                if not data:
                    raise RuntimeError("server closed a connection")
                conn.quickack()
                stamp = clock()
                conn.inbuf += data
                while True:
                    cut = conn.inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line, conn.inbuf = conn.inbuf[:cut], conn.inbuf[cut + 1:]
                    index = conn.pending[conn.head]
                    conn.head += 1
                    result.done[index] = stamp
                    result.ok[index] = line.startswith(OK_PREFIX)
                    if index in keep or not result.ok[index]:
                        result.kept[index] = line
                    completed += 1
        while marks:
            result.marks.append(on_mark(len(result.marks)))
            marks.pop(0)
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    return result


def request_once(port: int, doc: Dict) -> Dict:
    """One blocking request/response (set-up and final reads)."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(json.dumps(doc).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise RuntimeError("server closed the connection")
            buf += chunk
    return json.loads(buf)
