"""Shaped reward machinery.

The training signal for a completion is the change in discounted future
hit rate caused by the parsed action, plus a static penalty for malformed
output and a dynamic penalty for passing on a known-beneficial swap,
clipped to a fixed band. ``score_group`` scores a group of completions of
one state in one pass; ``score_completion`` is its one-text case.
``verify_pbrs`` scores through the same pass and turns the shaping guarantees
(argmax invariance, order preservation among swaps, strict demotion of the
penalized no-op) into an executable audit, and ``JointSpaceSize`` counts
the joint action space whose exponential growth the ``verify`` suite checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, islice, repeat
from operator import mul

import numpy as np

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    EXPERT_HORIZON,
    JointAction,
    NOOP,
    StructuralError,
    apply,
    check_count,
    check_finite,
    check_gamma,
    check_horizon,
    check_peek,
    check_positive,
    check_transition,
    feasible_actions,
)
from .episode import expert_walk
from .interface import SlotObservation, parse, serialize
from .traffic import Instance

CLASS_INVALID = "invalid"
CLASS_VALID_NOOP = "valid-noop"
CLASS_VALID_WRITE = "valid-write"

_ARGMAX_TOL = 1e-12

#: The band every shaped total is clipped to.
CLIP_LO, CLIP_HI = -1.0, 1.0


@dataclass(frozen=True)
class RewardConfig:
    """Scoring knobs: look-ahead depth, discount, penalties, advantage floor."""

    horizon: int = EXPERT_HORIZON
    gamma: float = EXPERT_GAMMA
    lambda_fmt: float = -1.0
    lambda_opp: float = -0.2
    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", check_horizon(self.horizon))
        object.__setattr__(self, "gamma", check_gamma(self.gamma))
        for name in ("lambda_fmt", "lambda_opp"):
            object.__setattr__(self, name, check_finite(name, getattr(self, name)))
        object.__setattr__(self, "epsilon", check_positive("epsilon", self.epsilon))
        # Penalties must not reward bad output; exact zero is representable
        # so the degraded-demotion case can be constructed and flagged.
        if self.lambda_fmt > 0 or self.lambda_opp > 0:
            raise StructuralError("penalties must be <= 0")


@dataclass(frozen=True)
class RewardBreakdown:
    """One completion's score, decomposed."""

    gain: float
    penalty: float
    total: float
    classification: str
    expert_acted: bool
    action: JointAction

    @property
    def unclipped(self) -> float:
        return self.gain + self.penalty


def lookahead_value(cache, peek, graph, horizon: int, gamma: float) -> float:
    """Discount-weighted mean of hit rates over the next ``horizon`` slots.

    Normalized by the weight mass, so the value always lands in [0, 1].
    The one-cache case of :func:`lookahead_values`.
    """
    return lookahead_values([cache], peek, graph, horizon, gamma)[0]


def lookahead_values(caches, peek, graph, horizon: int, gamma: float) -> list[float]:
    """The :func:`lookahead_value` of each of ``caches``: the discount-weighted
    mean over the next ``horizon`` slots of its hit rate, as
    :func:`~coopcache.core.hit_rate` counts it, normalized by the weight mass.

    Every cache is recounted in full, but all of them in one numpy pass: a
    request hits a cache when a 0/1 membership table of that cache holds the
    file at one of the user's covering BSs. Hits stay integers per (cache,
    slot) until the floats are summed slot by slot, so each value rounds as
    the sum of ``weight * hit_rate`` over the slots does. Bad inputs raise
    what ``hit_rate`` and :func:`~coopcache.core.check_peek` raise.
    """
    check_peek(peek, horizon)
    bs_count = len(graph.bs_xy)
    slots = peek[:horizon]
    if any(len(c.slots) != bs_count for c in caches) or any(
            len(s.counts) != bs_count for s in slots):
        raise StructuralError("cache/requests/graph BS counts differ")
    sizes = np.array([s.size for s in slots])
    if not caches or not sizes.any():  # no cache, or every slot empty: each rate is 0
        return [0.0] * len(caches)
    # file_at[k, u] is the file user u asks for in slot k, EMPTY_SLOT when
    # absent, and it is looked up at the 0-based BSs lookup[u]: the user's
    # covering BSs, padded with a phantom BS ``bs_count`` that holds nothing.
    file_at = np.array([s.row for s in slots], np.intp)
    width = max(1, max(map(len, graph.coverage)))
    phantom = (bs_count,) * width
    lookup = np.array([tuple(b - 1 for b in cov) + phantom[len(cov):]
                       for cov in graph.coverage], np.intp)
    # held[c, b, f]: cache c holds file f at 0-based BS b. Files above the
    # largest one asked for are left out, and no cache holds EMPTY_SLOT, so
    # an absent user never hits.
    top = int(file_at.max())
    rows = [row for cache in caches for row in cache.slots]
    lengths = list(map(len, rows))
    files = np.fromiter(chain.from_iterable(rows), np.intp, sum(lengths))
    row_of = np.repeat(np.arange(len(rows)), lengths)
    asked = (files != EMPTY_SLOT) & (files <= top)
    row_of, files = row_of[asked], files[asked]
    held = np.zeros((len(caches), bs_count + 1, top + 1), np.bool_)
    held[row_of // bs_count, row_of % bs_count, files] = True
    hits = held[:, lookup, file_at[:, :, None]].any(axis=3).sum(axis=2)
    # The rates, weighted, summed slot by slot: cumsum adds in order, and an
    # empty slot's rate of 0 adds 0.0, which changes no sum.
    weights = list(accumulate(repeat(gamma, horizon - 1), mul, initial=1.0))  # products, not g**k
    rates = np.divide(hits, sizes, out=np.zeros(hits.shape), where=sizes > 0)
    num = np.cumsum(np.array(weights) * rates, axis=1)[:, -1]
    return (num / sum(weights)).tolist()


def score_completion(text: str, obs: SlotObservation, peek, expert: JointAction,
                     cfg: RewardConfig, graph) -> RewardBreakdown:
    """Score one completion: the one-text case of :func:`score_group`."""
    return score_group([text], obs, peek, expert, cfg, graph)[0]


def score_group(texts, obs: SlotObservation, peek, expert: JointAction,
                cfg: RewardConfig, graph) -> list[RewardBreakdown]:
    """Score a group of completions of one state against the frozen future
    and the expert witness, in one pass.

    Each valid action is applied and its transition checked; the slot cache
    and each distinct changed cache are valued in one ``lookahead_values``
    call, so an unchanged cache's gain is exactly 0.0. Invalid output gets
    the format penalty and zero gain. A valid all-no-op is penalized only
    when the stored expert action proves a beneficial swap existed. Totals
    are clipped to the fixed band [CLIP_LO, CLIP_HI].
    """
    return [row for row, _ in _scored(texts, obs, peek, expert, cfg, graph)]


def _scored(texts, obs: SlotObservation, peek, expert: JointAction, cfg: RewardConfig,
            graph) -> list[tuple[RewardBreakdown, float]]:
    """The one scoring pass: :func:`score_group`'s rows, each beside the
    look-ahead value of the cache its action leaves."""
    cache, requests = obs.cache, obs.requests
    at = {cache: 0}  # each cache valued, by its index in the one call
    parsed = []
    for text in texts:
        action = parse(text, obs)
        after = apply(cache, action, requests) if action.is_valid else cache
        if not check_transition(cache, after):
            raise StructuralError("transition exceeds the per-BS single-swap budget")
        parsed.append((action, at.setdefault(after, len(at))))
    values = lookahead_values(list(at), peek, graph, cfg.horizon, cfg.gamma)
    acted = _acted(expert)
    return [(_breakdown(action, values[i] - values[0], acted, cfg), values[i])
            for action, i in parsed]


def _acted(expert: JointAction) -> bool:
    """Whether the expert witnessed a beneficial swap: a valid action that is not all no-ops."""
    return expert.is_valid and not expert.is_all_noop


def _breakdown(action: JointAction, gain: float, expert_acted: bool,
               cfg: RewardConfig) -> RewardBreakdown:
    """The penalty, class and clipped total of a parsed action with its gain."""
    if not action.is_valid:
        penalty, classification = cfg.lambda_fmt, CLASS_INVALID
    elif action.is_all_noop:
        penalty = cfg.lambda_opp if expert_acted else 0.0
        classification = CLASS_VALID_NOOP
    else:
        penalty, classification = 0.0, CLASS_VALID_WRITE
    total = min(max(gain + penalty, CLIP_LO), CLIP_HI)
    return RewardBreakdown(gain, penalty, total, classification, expert_acted, action)


def group_advantage(rewards, epsilon: float) -> list[float]:
    """Within-group z-scores: population deviation plus a stability floor
    ``epsilon``, which must be finite and > 0 as in ``RewardConfig``."""
    epsilon = check_positive("epsilon", epsilon)
    values = [float(r) for r in rewards]
    if not values:
        raise StructuralError("advantage needs at least one reward")
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    std = math.sqrt(variance)
    return [(v - mean) / (std + epsilon) for v in values]


@dataclass(frozen=True)
class JointSpaceSize:
    """Per-BS feasible action counts (non-duplication honored) and their product."""

    factors: tuple[int, ...]

    @property
    def product(self) -> int:
        return math.prod(self.factors)

    @property
    def exponential_bound_applies(self) -> bool:
        return all(f >= 2 for f in self.factors)

    @property
    def exponential_bound_holds(self) -> bool:
        return self.product >= 2 ** len(self.factors)


def joint_space_size(obs: SlotObservation) -> JointSpaceSize:
    """Per-BS feasible action counts and their product."""
    factors = tuple(
        len(feasible_actions(obs.cache, b, obs.requests)) for b in range(1, obs.bs_count + 1)
    )
    return JointSpaceSize(factors)


@dataclass(frozen=True)
class ShapingReport:
    """Outcome of the shaping audit: per sampled slot, the actions audited at each BS."""

    seed: int
    argmax_mismatches: tuple[str, ...]
    order_violations: tuple[str, ...]
    demotion_violations: tuple[str, ...]
    flags: tuple[str, ...]
    spaces: tuple[JointSpaceSize, ...]

    @property
    def slots_checked(self) -> int:
        return len(self.spaces)

    @property
    def actions_checked(self) -> int:
        return sum(sum(space.factors) for space in self.spaces)

    @property
    def ok(self) -> bool:
        return not (
            self.argmax_mismatches or self.order_violations or self.demotion_violations
        )

    def to_dict(self) -> dict:
        payload = asdict(self)
        del payload["spaces"]
        payload["joint_space_products"] = [space.product for space in self.spaces]
        return {**payload, "slots_checked": self.slots_checked,
                "actions_checked": self.actions_checked, "ok": self.ok}


def verify_pbrs(instance: Instance, sample_slots: int, cfg: RewardConfig) -> ShapingReport:
    """Exhaustive per-BS shaping audit along the expert trajectory.

    Walks the expert trajectory from the warm state; at each of the first
    ``sample_slots`` full-cache decision slots it embeds every feasible
    per-BS action in an otherwise no-op joint action and checks that

    * the gain argmax coincides with the post-action potential argmax,
    * shaped scores rank swaps exactly as their gains do, and
    * every positive-gain swap strictly dominates the penalized no-op
      whenever the expert witnessed a beneficial swap.

    The texts of every BS's actions at a slot are scored together in one
    :func:`score_group` pass, so the slot's own cache and each candidate
    cache are valued once, each by a full look-ahead recount from hit
    counts, independent of the oracle's tallies. A parsed action that is not
    its joint action fails the text round trip and raises. A no-op keeps
    the slot cache, and a gain is potential minus the slot cache's value.
    A ``sample_slots`` that is not a count raises.
    """
    check_count("sample_slots", sample_slots)
    bs_range = range(1, instance.config.bs_count + 1)
    graph = instance.graph
    flags = []
    if cfg.lambda_opp >= 0:
        flags.append("lambda_opp >= 0: no-op demotion is no longer strict")
    if cfg.lambda_fmt >= 0:
        flags.append("lambda_fmt >= 0: malformed output is not penalized")
    argmax_bad: list[str] = []
    order_bad: list[str] = []
    demote_bad: list[str] = []
    spaces: list[JointSpaceSize] = []
    walk = expert_walk(instance, cfg.horizon, cfg.gamma)
    for obs, expert, peek in islice(walk, sample_slots):
        audited = []  # per BS: where, then (act, joint action) per feasible action
        for b in bs_range:
            audited.append((f"seed {instance.seed} slot {obs.slot} BS {b}", [
                (act, JointAction.valid([act if bb == b else NOOP for bb in bs_range]))
                for act in feasible_actions(obs.cache, b, obs.requests)]))
        spaces.append(JointSpaceSize(tuple(len(joints) for _, joints in audited)))
        texts = [serialize(joint) for _, joints in audited for _, joint in joints]
        scored = iter(_scored(texts, obs, peek, expert, cfg, graph))
        expert_acted = _acted(expert)
        for where, joints in audited:
            rows = []  # (act, breakdown, post-action value)
            for (act, joint), (s, value) in zip(joints, scored):
                if s.action != joint:
                    raise StructuralError(f"{where}: {act} does not survive the text round trip")
                rows.append((act, s, value))
            gains = [s.gain for _, s, _ in rows]
            potentials = [p for _, _, p in rows]
            top_g, top_p = max(gains), max(potentials)
            by_gain = {i for i, g in enumerate(gains) if g >= top_g - _ARGMAX_TOL}
            by_potential = {i for i, p in enumerate(potentials) if p >= top_p - _ARGMAX_TOL}
            if by_gain != by_potential:
                argmax_bad.append(f"{where}: gain argmax != potential argmax")
            # one entry per ordered pair of swaps whose gains differ and whose
            # shaped scores do not rank them alike
            writes = np.array([(s.gain, s.unclipped) for act, s, _ in rows if not act.is_noop])
            if len(writes) > 1:
                gain, score = writes[:, :1], writes[:, 1:]
                unranked = (gain > gain.T + _ARGMAX_TOL) & ~(score > score.T)
                order_bad += [f"{where}: swap ranking not preserved"] * int(unranked.sum())
            if expert_acted:
                noop = next(s for act, s, _ in rows if act.is_noop).unclipped
                for act, s, _ in rows:
                    if not act.is_noop and s.gain > 0.0 and not s.unclipped > 0.0 > noop:
                        demote_bad.append(f"{where}: positive-gain swap does not dominate no-op")
    return ShapingReport(instance.seed, tuple(argmax_bad), tuple(order_bad),
                         tuple(demote_bad), tuple(flags), tuple(spaces))
