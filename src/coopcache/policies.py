"""Controllers behind one uniform contract.

Every policy consumes a :class:`~coopcache.interface.SlotObservation`. The
built-in policies answer with the :class:`~coopcache.core.JointAction` they
build and are deterministic given (instance, slot); only oracle-class
policies receive a peek at the frozen future trace. The extern adapter
delegates decisions to a child process speaking length-prefixed frames and
answers with its completion text, which the rollout parses.
"""

from __future__ import annotations

import os
import shutil
import time

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    NOOP,
    BsAction,
    JointAction,
    StructuralError,
    check_gamma,
    check_horizon,
    check_positive,
    hottest_uncached,
    oracle_best_action,  # not called here: perfbench traces the oracle under this name
    oracle_joint_action,
)
from .frames import HEADER_LIMIT, frame_bytes, frame_length
from .frames import read_frame, write_frame  # not called here: perfbench traces these names
from .interface import encode


class AdapterError(Exception):
    """The external adapter process could not be started."""


def _first_missed_candidate(cache, b, requests):
    """Earliest missed insertable request in arrival (user) order.

    The queue policy processes requests as they arrive instead of peeking
    at slot-level popularity, mirroring classical insert-on-miss caches.
    """
    cached = cache.files_at(b)
    pool = requests.counts[b - 1]
    for f in requests.row:  # an absent user's 0 is in no pool
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

    ``decide`` returns either a :class:`JointAction` (the built-in policies,
    deterministic given (instance, slot)) or completion text in the decision
    grammar (the extern adapter), which the rollout parses. A policy
    with a positive ``peek_len`` receives the next ``peek_len`` frozen
    request slots; the others receive None.
    """

    name = "policy"
    peek_len = 0

    def reset(self, instance, warm=None) -> None:
        """Bind instance metadata and the warm state the rollout starts from."""

    def decide(self, obs, peek=None) -> JointAction | str:
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources, if any."""


class NoopPolicy(Policy):
    """Always keeps every cache unchanged; useful as a frozen baseline."""

    name = "noop"

    def decide(self, obs, peek=None) -> JointAction:
        return JointAction.valid([NOOP] * obs.bs_count)


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

    def decide(self, obs, peek=None) -> JointAction:
        self._record(obs.slot, obs.requests)
        return JointAction.valid(_eviction_actions(obs, self.book, hottest_uncached))


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

    def decide(self, obs, peek=None) -> JointAction:
        actions = _eviction_actions(obs, self.book, _first_missed_candidate)
        for book, (z, f_in, f_out) in zip(self.book, actions):
            if z:
                book.pop(f_out, None)
                book[f_in] = obs.slot
        return JointAction.valid(actions)


class OraclePolicy(Policy):
    """Look-ahead exhaustive search over the frozen future trace.

    horizon=1 is the myopic next-slot reference; horizon=10 with the
    default discount is the demonstration expert.
    """

    def __init__(self, horizon: int, gamma: float = EXPERT_GAMMA) -> None:
        self.horizon = check_horizon(horizon)
        self.gamma = check_gamma(gamma)
        self.name = f"oracle:{self.horizon}"
        self.peek_len = self.horizon
        self._graph = None

    def reset(self, instance, warm=None) -> None:
        self._graph = instance.graph

    def decide(self, obs, peek=None) -> JointAction:
        if peek is None:
            raise StructuralError("oracle policy needs a peek window")
        if self._graph is None:
            raise StructuralError(f"{self.name}: decide needs reset to bind the instance graph")
        return oracle_joint_action(obs.cache, obs.requests, peek, self._graph,
                                   self.horizon, self.gamma)


EXTERN_TIMEOUT_S = 30.0  # default seconds the extern adapter has to answer one prompt


def _warn(message: str, *args) -> None:
    """Log a warning on the ``coopcache.policies`` logger. Only the extern
    adapter warns, so ``logging`` loads when it first does."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


class _Hangup(Exception):
    """The adapter broke the frame protocol or its pipes; the message names how."""


class ExternPolicy(Policy):
    """Delegates decisions to a persistent child process.

    Wire protocol, both directions: ``LEN <n>\\n`` followed by exactly n
    bytes of UTF-8 payload. One prompt frame out, one completion frame
    back per slot. All adapter I/O runs on the calling thread over
    non-blocking pipes, and one deadline per slot, ``timeout`` seconds (a
    finite number > 0) after the prompt is ready, bounds writing the prompt
    and reading its reply together. If no byte of the reply has come by
    then, the slot scores an empty completion (which parses invalid) and
    the prompt is owed a late reply: the next complete frames answer owed
    prompts first, in order, and are dropped, so each slot gets the reply
    to its own prompt.

    The adapter is gone, and every later slot scores an empty completion,
    when the deadline finds the prompt not fully written or part of a
    frame read; on an extra frame: bytes beyond the owed late replies
    that come before the prompt is fully written, or any bytes left after
    the reply; on a bad header (not ``LEN <n>`` with n up to
    ``FRAME_LIMIT``, within ``HEADER_LIMIT`` bytes); and when its output or
    stdin closes or it exits. A gone adapter is reported once, in a warning
    naming the cause, and the empty completions scored after that are
    counted and reported once by :meth:`close`, which also closes the
    pipes. The command is split as a shell would and its program looked up
    when the policy is built, so a command that cannot start is refused
    before any rollout; the process itself starts at :meth:`reset`.
    """

    def __init__(self, command: str, timeout: float = EXTERN_TIMEOUT_S) -> None:
        import shlex  # the adapter's modules load only when an extern policy is built

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
        self._timeout = check_positive("extern_timeout", timeout)
        self._proc = None  # the adapter's subprocess.Popen, from reset on
        self._buf = bytearray()  # adapter output not yet taken as a frame
        self._stale = 0  # replies owed to timed-out prompts, not yet read
        self._dead_slots = 0  # empty completions scored since the adapter died

    def reset(self, instance, warm=None) -> None:
        if self._proc is None or self._proc.poll() is not None:
            self._stop()
            self._spawn()

    def _spawn(self) -> None:
        import subprocess

        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start adapter {self._command!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._buf.clear()
        self._stale = 0
        self._dead_slots = 0

    def _gone(self, how: str, slot: int) -> str:
        """Score an empty completion for a dead adapter; warn only the first time."""
        if not self._dead_slots:
            _warn("adapter is gone (%s) at slot %d; scoring empty completions", how, slot)
        self._dead_slots += 1
        return ""

    def decide(self, obs, peek=None) -> str:
        if self._dead_slots or self._proc is None or self._proc.poll() is not None:
            return self._gone("process exited", obs.slot)
        try:
            return self._exchange(frame_bytes(encode(obs)), obs.slot)
        except _Hangup as exc:
            return self._gone(str(exc), obs.slot)

    def _exchange(self, prompt: bytes, slot: int) -> str:
        """Write ``prompt`` and read its reply in one selector loop against one
        deadline; each round reads before it writes, so output already
        waiting is matched before the prompt goes out."""
        import selectors

        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        deadline = time.monotonic() + self._timeout
        reply = None
        with selectors.DefaultSelector() as sel:
            sel.register(stdout, selectors.EVENT_READ)
            sel.register(stdin, selectors.EVENT_WRITE)
            while reply is None:
                ready = {key.fd for key, _ in sel.select(deadline - time.monotonic())}
                if not ready:
                    break
                if stdout in ready:
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        raise _Hangup("end of output")
                    self._buf += chunk
                    while self._stale and self._next_frame() is not None:
                        self._stale -= 1
                    if self._buf and not self._stale:
                        if prompt:
                            raise _Hangup("extra frame")
                        reply = self._next_frame()
                if stdin in ready:
                    try:
                        prompt = prompt[os.write(stdin, prompt):]
                    except BlockingIOError:
                        continue
                    except OSError:
                        raise _Hangup("pipe closed") from None
                    if not prompt:
                        sel.unregister(stdin)
        if reply is not None:
            if self._buf:
                raise _Hangup("extra frame")
            return reply
        if prompt:
            raise _Hangup("prompt not written by the deadline")
        if self._buf:
            raise _Hangup("partial frame at the deadline")
        self._stale += 1
        _warn("adapter timed out after %gs at slot %d", self._timeout, slot)
        return ""

    def _next_frame(self) -> str | None:
        """Take the first complete frame off the buffer; None while it holds less."""
        end = self._buf.find(b"\n", 0, HEADER_LIMIT) + 1
        if not end and len(self._buf) < HEADER_LIMIT:
            return None
        n = frame_length(bytes(self._buf[:end]))
        if n is None:
            raise _Hangup("bad frame header")
        if len(self._buf) < end + n:
            return None
        payload = self._buf[end:end + n].decode("utf-8", errors="replace")
        del self._buf[:end + n]
        return payload

    def close(self) -> None:
        if self._dead_slots:
            _warn("adapter was gone for %d slot(s); each scored an empty completion",
                  self._dead_slots)
            self._dead_slots = 0
        self._stop()

    def _stop(self) -> None:
        """End the adapter process, if any, and close its pipes."""
        if self._proc is None:
            return
        import subprocess

        proc, self._proc = self._proc, None
        proc.stdin.close()
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


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
