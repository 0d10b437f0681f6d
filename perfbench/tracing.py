"""Outside-in tracing of coopcache layer functions.

The tracer patches a timing wrapper onto each listed function, both in the
module that defines it and under every name another loaded module bound
with ``from .x import f`` (coopcache's own consumers and this benchmark);
patching only the defining module would miss calls made through those
names. Methods are patched on their class. Nothing under ``src/`` changes: the wrappers live here and are
removed again by :meth:`Tracer.uninstall`.

Every call becomes a span (name, parent span, start, end). Spans stay in
memory, one compact buffer per thread, and are written out once at exit.
A span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import array
import sys
import threading
import time

import numpy as np

# (module, attribute path, span name). The span name follows the
# ``<module>.<function>`` scheme of the per-layer metrics.
FUNCTIONS = (
    ("traffic", "build_instance", "traffic.build_instance"),
    ("traffic", "warm_start", "traffic.warm_start"),
    ("traffic", "advance_tracker", "traffic.advance_tracker"),
    ("traffic", "observe", "traffic.observe"),
    ("traffic", "Instance.sha256", "traffic.Instance.sha256"),
    ("policies", "oracle_best_action", "policies.oracle_best_action"),
    ("policies", "LruPolicy.decide", "policies.decide.lru"),
    ("policies", "LfuPolicy.decide", "policies.decide.lfu"),
    ("policies", "FifoPolicy.decide", "policies.decide.fifo"),
    ("policies", "OraclePolicy.decide", "policies.decide.oracle"),
    ("policies", "ExternPolicy.decide", "policies.extern.decide"),
    ("policies", "write_frame", "policies.write_frame"),
    ("policies", "read_frame", "policies.read_frame"),
    ("core", "hit_rate", "core.hit_rate"),
    ("core", "apply", "core.apply"),
    ("core", "check_transition", "core.check_transition"),
    ("interface", "parse", "interface.parse"),
    ("interface", "serialize", "interface.serialize"),
    ("interface", "encode", "interface.encode"),
    ("interface", "decode_prompt", "interface.decode_prompt"),
    ("reward", "lookahead_value", "reward.lookahead_value"),
    ("reward", "score_completion", "reward.score_completion"),
    ("reward", "verify_pbrs", "reward.verify_pbrs"),
    ("dataset", "generate_sft", "dataset.generate_sft"),
    ("dataset", "generate_grpo_states", "dataset.generate_grpo_states"),
    ("dataset", "write_sft_jsonl", "dataset.write_sft_jsonl"),
    ("dataset", "write_grpo_jsonl", "dataset.write_grpo_jsonl"),
    ("dataset", "audit_dataset", "dataset.audit_dataset"),
    ("harness", "rollout", "harness.rollout"),
    ("harness", "write_reports", "harness.write_reports"),
    ("harness", "write_sweep", "harness.write_sweep"),
    ("harness", "write_latency", "harness.write_latency"),
    ("verification", "fuzz_parser", "verification.fuzz_parser"),
    ("verification", "first_decision_observation",
     "verification.first_decision_observation"),
)

#: Horizons the oracle span is split by; other horizons get their own name.
ORACLE_HORIZONS = (1, 10)


def _oracle_name(args, kwargs) -> str:
    horizon = args[5] if len(args) > 5 else kwargs["horizon"]
    return f"policies.oracle_best_action.h{horizon}"


# Span names whose result is tallied when the test holds.
_OUTCOMES = {
    "policies.oracle_best_action": lambda act: not act.is_noop,   # swap returned
    "interface.parse": lambda action: action.is_valid,            # valid parse
    "policies.extern.decide": lambda text: text == "",            # empty completion
}


class _Buffer:
    """Spans of one thread: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.outcomes: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name: str):
        naming = _oracle_name if name == "policies.oracle_best_action" else None
        fixed_id = None if naming else self._id(name)
        outcome = _OUTCOMES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = self._buffer()
            span_name = naming(args, kwargs) if naming else name
            nid = fixed_id if fixed_id is not None else self._id(span_name)
            stack = buf.stack
            sid = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(clock())
            buf.end.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[sid] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.outcomes[span_name] = self.outcomes.get(span_name, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every listed function under every name any loaded module
        (coopcache's own and the benchmark's) has bound it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, attr, name in FUNCTIONS:
            module = sys.modules[f"coopcache.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                own = meth in cls.__dict__
                original = getattr(cls, meth)
                self._patches.append((cls, meth, cls.__dict__.get(meth), own))
                setattr(cls, meth, self._wrap(original, name))
            else:
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self._wrap(original, name))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, key, value, True))
                    setattr(mod, key, hit[1])

    def uninstall(self) -> None:
        """Put every patched name back exactly as it was."""
        for target, key, original, own in reversed(self._patches):
            if own:
                setattr(target, key, original)
            else:
                delattr(target, key)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans of all threads; parent ids index the same arrays."""
        names, parents, starts, ends = [], [], [], []
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            names.append(np.frombuffer(buf.name, dtype=np.int32))
            parents.append(parent)
            starts.append(np.frombuffer(buf.start, dtype=np.int64))
            ends.append(np.frombuffer(buf.end, dtype=np.int64))
            offset += len(buf.name)
        if not names:
            empty = np.zeros(0, dtype=np.int64)
            return {"name": empty.astype(np.int32), "parent": empty,
                    "start_ns": empty, "end_ns": empty}
        return {
            "name": np.concatenate(names),
            "parent": np.concatenate(parents),
            "start_ns": np.concatenate(starts),
            "end_ns": np.concatenate(ends),
        }

    def summary(self, s: dict) -> dict[str, tuple[int, float]]:
        """Per span name in ``s`` (from :meth:`spans`): (calls, self seconds)."""
        dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
        has_parent = s["parent"] >= 0
        covered = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_ns = dur - covered
        count = np.bincount(s["name"], minlength=len(self.names))
        total = np.bincount(s["name"], weights=self_ns, minlength=len(self.names))
        return {n: (int(count[i]), float(total[i]) / 1e9) for i, n in enumerate(self.names)}

    def calls_under(self, s: dict, child: str, parent_prefix: str) -> int:
        """Calls of ``child`` whose direct parent span name starts with a prefix."""
        if child not in self._ids:
            return 0
        mask = s["name"] == self._ids[child]
        parents = s["parent"][mask]
        parents = parents[parents >= 0]
        wanted = {i for i, n in enumerate(self.names) if n.startswith(parent_prefix)}
        return int(sum(1 for p in s["name"][parents] if int(p) in wanted))

    def write(self, path, s: dict) -> None:
        """Write the spans, the name table and the workload to one .npz file."""
        np.savez_compressed(path, workload=np.array(self.workload),
                            names=np.array(self.names, dtype=str), **s)
