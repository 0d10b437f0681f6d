"""The episode stepper behind every walk over a frozen trace.

Rollouts, the expert walk behind the SFT/GRPO exports and the shaping
audit, and the fuzz seed observation all follow one set of per-slot
rules: read the requests, fold them into the tracker, observe, then apply
a joint action. An invalid action changes nothing, and every executed
transition is audited against the single-swap budget.
"""

from __future__ import annotations

from .core import CacheState, JointAction, apply, check_transition, oracle_best_action
from .interface import SlotObservation
from .traffic import Instance, WarmState, advance_tracker, observe, warm_start


class Episode:
    """A walk over the frozen trace that starts from a warm state.

    The warm tracker has folded in exactly the trace prefix 1..``slot``,
    so the walk continues at ``slot + 1``. Call :meth:`advance` to move to
    the next slot and :meth:`step` to act on it.
    """

    def __init__(self, instance: Instance, warm: WarmState) -> None:
        self.instance = instance
        self.cache: CacheState = warm.cache
        self.tracker = warm.tracker
        self.slot = warm.tracker.slots_seen
        self.obs: SlotObservation | None = None

    def advance(self) -> SlotObservation:
        """Read the next slot's requests and return its observation."""
        self.slot += 1
        requests = self.instance.request_slot(self.slot)
        self.tracker = advance_tracker(self.tracker, requests)
        self.obs = observe(self.slot, self.cache, requests, self.tracker)
        return self.obs

    def step(self, action: JointAction) -> bool:
        """Apply ``action`` at the current slot; False if it was invalid."""
        if not action.is_valid:
            return False
        after = apply(self.cache, action, self.obs.requests)
        if not check_transition(self.cache, after):
            raise RuntimeError(f"slot {self.slot}: action broke the single-swap budget")
        self.cache = after
        return True


def expert_walk(instance: Instance, horizon: int, gamma: float):
    """Walk the look-ahead expert; yield ``(obs, expert, peek)`` per full-cache slot.

    The expert acts at every slot; its action is applied only when the next
    item is requested, so a consumer that stops early computes nothing past
    its last item. The warm-up runs eagerly. The walk ends where the trace
    can no longer supply a peek.
    """
    episode = Episode(instance, warm_start(instance, horizon, gamma))
    bs_range = range(1, instance.config.bs_count + 1)

    def walk():
        while episode.slot + horizon < instance.trace_len:
            obs = episode.advance()
            peek = instance.peek(obs.slot, horizon)
            expert = JointAction.valid(
                [
                    oracle_best_action(
                        obs.cache, b, obs.requests, peek, instance.graph, horizon, gamma
                    )
                    for b in bs_range
                ]
            )
            if all(obs.cache.is_full(b) for b in bs_range):
                yield obs, expert, peek
            episode.step(expert)

    return walk()
