"""Controllers behind one uniform contract.

Every policy consumes a :class:`~coopcache.interface.SlotObservation` and
answers with completion text in the decision grammar. Built-in policies are
deterministic given (instance, slot); only oracle-class policies receive a
peek at the frozen future trace. The extern adapter delegates decisions to
a child process speaking length-prefixed frames.
"""

from __future__ import annotations

import logging
import math
import queue
import shlex
import shutil
import subprocess
import threading
import time

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    NOOP,
    BsAction,
    JointAction,
    StructuralError,
    hottest_uncached,
    oracle_best_action,  # not called here: perfbench traces the oracle under this name
    oracle_joint_action,
)
from .interface import encode, serialize

logger = logging.getLogger(__name__)


class AdapterError(Exception):
    """The external adapter process could not be started."""


def _first_missed_candidate(cache, b, requests):
    """Earliest missed insertable request in arrival (user) order.

    The queue policy processes requests as they arrive instead of peeking
    at slot-level popularity, mirroring classical insert-on-miss caches.
    """
    cached = cache.files_at(b)
    pool = requests.counts[b - 1]
    for _u, f in requests.pairs:
        if f in pool and f not in cached:
            return f
    return None


def _eviction_actions(obs, book, candidate_fn) -> list[BsAction]:
    """Per full BS, swap the candidate in over the cached file least in ``book``
    (ties to the lower file id), found with its slot in one pass over the row."""
    cache, requests = obs.cache, obs.requests
    actions = []
    for b, row in enumerate(cache.slots, start=1):
        f_in = None if EMPTY_SLOT in row else candidate_fn(cache, b, requests)
        if f_in is None:
            actions.append(NOOP)
            continue
        score = book[b - 1]
        victim = None
        for z, f in enumerate(row, start=1):
            s = score.get(f, 0)
            if victim is None or s < low or s == low and f < victim:
                slot, victim, low = z, f, s
        actions.append(BsAction(slot, f_in, victim))
    return actions


def _warm_state(policy, warm):
    """``warm``, which a policy that keeps a book cannot start without."""
    if warm is None:
        raise StructuralError(f"{policy.name}: reset needs the warm state the rollout starts from")
    return warm


class Policy:
    """Uniform controller contract.

    ``decide`` must return completion text for the current observation;
    built-in policies are deterministic given (instance, slot). A policy
    with a positive ``peek_len`` receives the next ``peek_len`` frozen
    request slots; the others receive None.
    """

    name = "policy"
    peek_len = 0

    def reset(self, instance, warm=None) -> None:
        """Bind instance metadata and the warm state the rollout starts from."""

    def decide(self, obs, peek=None) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources, if any."""


class NoopPolicy(Policy):
    """Always keeps every cache unchanged; useful as a frozen baseline."""

    name = "noop"

    def decide(self, obs, peek=None) -> str:
        return serialize(JointAction.valid([NOOP] * obs.bs_count))


class _RequestBookPolicy(Policy):
    """Evicts by a per-BS book (file -> score) that ``_record`` derives from
    the requests alone: rebuilt from the warm-up slots at reset, then moved
    on by each decided slot."""

    book: list[dict]

    def reset(self, instance, warm=None) -> None:
        warm = _warm_state(self, warm)
        self.book = [{} for _ in range(warm.cache.bs_count)]
        for t, requests in enumerate(warm.tracker.trace[: warm.tracker.slots_seen], start=1):
            self._record(t, requests)

    def decide(self, obs, peek=None) -> str:
        self._record(obs.slot, obs.requests)
        return serialize(JointAction.valid(_eviction_actions(obs, self.book, hottest_uncached)))


class LruPolicy(_RequestBookPolicy):
    """Evicts the file requested longest ago: the book holds each file's last slot."""

    name = "lru"

    def _record(self, slot, requests) -> None:
        for book, counts in zip(self.book, requests.counts):
            book.update(dict.fromkeys(counts, slot))


class LfuPolicy(_RequestBookPolicy):
    """Evicts the least requested file: the book holds each file's request total."""

    name = "lfu"

    def _record(self, slot, requests) -> None:
        for book, counts in zip(self.book, requests.counts):
            for f, c in counts.items():
                book[f] = book.get(f, 0) + c


class FifoPolicy(Policy):
    """Evicts the file cached longest ago, by the insertion slots of the warm state."""

    name = "fifo"
    book: list[dict]

    def reset(self, instance, warm=None) -> None:
        self.book = [dict(d) for d in _warm_state(self, warm).inserted_at]

    def decide(self, obs, peek=None) -> str:
        actions = _eviction_actions(obs, self.book, _first_missed_candidate)
        for book, (z, f_in, f_out) in zip(self.book, actions):
            if z:
                book.pop(f_out, None)
                book[f_in] = obs.slot
        return serialize(JointAction.valid(actions))


class OraclePolicy(Policy):
    """Look-ahead exhaustive search over the frozen future trace.

    horizon=1 is the myopic next-slot reference; horizon=10 with the
    default discount is the demonstration expert.
    """

    def __init__(self, horizon: int, gamma: float = EXPERT_GAMMA) -> None:
        if horizon < 1:
            raise StructuralError("oracle horizon must be >= 1")
        self.horizon = int(horizon)
        self.gamma = float(gamma)
        self.name = f"oracle:{self.horizon}"
        self.peek_len = self.horizon
        self._graph = None

    def reset(self, instance, warm=None) -> None:
        self._graph = instance.graph

    def decide(self, obs, peek=None) -> str:
        if peek is None:
            raise StructuralError("oracle policy needs a peek window")
        if self._graph is None:
            raise StructuralError(f"{self.name}: decide needs reset to bind the instance graph")
        return serialize(oracle_joint_action(obs.cache, obs.requests, peek, self._graph,
                                             self.horizon, self.gamma))


EXTERN_TIMEOUT_S = 30.0  # default seconds the extern adapter has to answer one prompt
FRAME_LIMIT = 16 * 1024 * 1024  # refuse absurd frame sizes from adapters
HEADER_LIMIT = 64  # a header line longer than this is malformed


def write_frame(stream, payload: str) -> None:
    """Emit one ``LEN <n>`` header line plus n bytes of UTF-8 payload."""
    data = payload.encode("utf-8")
    stream.write(b"LEN %d\n" % len(data))
    stream.write(data)
    stream.flush()


def read_frame(stream) -> str | None:
    """Read one frame; None on EOF, a bad header, or a truncated payload.

    The header read stops after ``HEADER_LIMIT`` bytes, so an adapter that
    never sends a newline cannot make the reader consume its whole output.
    """
    header = stream.readline(HEADER_LIMIT)
    if not header.endswith(b"\n") or not header.startswith(b"LEN "):
        return None
    try:
        n = int(header[4:].strip())
    except ValueError:
        return None
    if n < 0 or n > FRAME_LIMIT:
        return None
    data = stream.read(n)
    if data is None or len(data) != n:
        return None
    return data.decode("utf-8", errors="replace")


class ExternPolicy(Policy):
    """Delegates decisions to a persistent child process.

    Wire protocol, both directions: ``LEN <n>\\n`` followed by exactly n
    bytes of UTF-8 payload. One prompt frame out, one completion frame
    back per slot. A timeout or a closed pipe yields an empty completion
    (which parses invalid); the frames owed to timed-out prompts are
    discarded in order, whenever they arrive, so each slot gets the reply
    to its own prompt. The timeout must be a finite number of seconds > 0.
    The command is split as a shell would and its program looked up when
    the policy is built, so a command that cannot start is refused before
    any rollout; the process itself starts at :meth:`reset`. A dead
    adapter is reported once, when it is found, and the empty completions
    scored after that are counted and reported once by :meth:`close`.
    """

    def __init__(self, command: str, timeout: float = EXTERN_TIMEOUT_S) -> None:
        if not command.strip():
            raise AdapterError("empty adapter command")
        try:
            self._argv = shlex.split(command)
        except ValueError as exc:  # an unclosed quote, say
            raise AdapterError(f"cannot start adapter {command!r}: {exc}") from None
        if shutil.which(self._argv[0]) is None:
            raise AdapterError(f"cannot start adapter {command!r}: "
                               f"no executable {self._argv[0]!r}")
        self.name = "extern"
        self._command = command
        self._timeout = float(timeout)
        if not 0 < self._timeout < math.inf:
            raise StructuralError(f"extern timeout must be a finite number > 0, not {timeout!r}")
        self._proc: subprocess.Popen | None = None
        self._frames: queue.Queue | None = None
        self._stale = 0  # frames owed to timed-out prompts, not yet read
        self._dead_slots = 0  # empty completions scored since the adapter died

    def reset(self, instance, warm=None) -> None:
        if self._proc is None or self._proc.poll() is not None:
            self._spawn()

    def _spawn(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start adapter {self._command!r}: {exc}") from exc
        self._frames = queue.Queue()
        self._stale = 0
        self._dead_slots = 0
        threading.Thread(
            target=_pump_frames, args=(self._proc.stdout, self._frames), daemon=True
        ).start()

    def _gone(self, how: str, slot: int) -> str:
        """Score an empty completion for a dead adapter; warn only the first time."""
        if not self._dead_slots:
            logger.warning("adapter is gone (%s) at slot %d; scoring empty completions",
                           how, slot)
        self._dead_slots += 1
        return ""

    def decide(self, obs, peek=None) -> str:
        if self._dead_slots or self._proc is None or self._proc.poll() is not None:
            return self._gone("process exited", obs.slot)
        try:
            write_frame(self._proc.stdin, encode(obs))
        except (BrokenPipeError, OSError):
            return self._gone("pipe closed", obs.slot)
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                reply = self._frames.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self._stale += 1
                logger.warning(
                    "adapter timed out after %.1fs at slot %d", self._timeout, obs.slot
                )
                return ""
            if reply is None:
                return self._gone("end of output", obs.slot)
            if not self._stale:
                return reply
            self._stale -= 1

    def close(self) -> None:
        if self._dead_slots:
            logger.warning("adapter was gone for %d slot(s); each scored an empty completion",
                           self._dead_slots)
            self._dead_slots = 0
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
            self._proc = None


def _pump_frames(stream, frames: queue.Queue) -> None:
    while True:
        frame = read_frame(stream)
        frames.put(frame)
        if frame is None:
            return


def make_policy(spec: str, gamma: float = EXPERT_GAMMA,
                extern_timeout: float = EXTERN_TIMEOUT_S) -> Policy:
    """Build a controller from its textual spec.

    Accepted specs: ``lru`` | ``lfu`` | ``fifo`` | ``noop`` |
    ``oracle:<horizon>`` | ``extern:<command>``.
    """
    if spec == "lru":
        return LruPolicy()
    if spec == "lfu":
        return LfuPolicy()
    if spec == "fifo":
        return FifoPolicy()
    if spec == "noop":
        return NoopPolicy()
    if spec.startswith("oracle:"):
        try:
            horizon = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise StructuralError(f"bad oracle horizon in {spec!r}") from exc
        return OraclePolicy(horizon, gamma)
    if spec.startswith("extern:"):
        return ExternPolicy(spec.split(":", 1)[1], timeout=extern_timeout)
    raise StructuralError(f"unknown policy spec {spec!r}")
