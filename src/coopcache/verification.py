"""Self-check suites: parser fuzzing, shaping audit, joint-space growth.

Shared by the ``verify`` CLI subcommand and the acceptance tests. The fuzz
corpus mixes raw random bytes, mutated copies of a real prompt and of a
real expert completion, and hand-written near-miss decision lines; a case
fails if the parser raises, or accepts text whose action the environment
then rejects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import NOOP, JointAction, StructuralError, apply, feasible_actions, nonnegative
from .episode import Episode
from .interface import SlotObservation, encode, parse, serialize
from .reward import RewardConfig, ShapingReport, verify_pbrs
from .traffic import Instance, InstanceConfig, build_instance, warm_start

#: The fuzz corpus's seed, so every run hammers the parser with the same cases.
FUZZ_SEED = 0xC0FFEE

NEAR_MISS_LINES = (
    "BS 1: NOOP extra",
    "BS 1: noop",
    "bs 1: NOOP",
    "BS 01: NOOP",
    "BS 1 : NOOP",
    "BS 1:NOOP",
    "BS 1: SWAP slot=1 in=5 out=7",
    "BS 1: SWAP slot=01 out=7 in=5",
    "BS 1: SWAP slot=1 out=7 in=05",
    "BS 1: SWAP slot=1 out=7 in=5 ",
    "BS 1: SWAP slot=1 out=7 in=5 again",
    "BS 1: SWAP slot=0 out=7 in=5",
    "BS 1: SWAP slot=+1 out=7 in=5",
    "BS 1: SWAP slot=1 out=-7 in=5",
    "BS 1: SWAP slot=1 out=7 in=99999999999999999999",
    "BS 999999999: NOOP",
    "BS2: NOOP",
    "BS 2 NOOP",
    "SWAP slot=1 out=7 in=5",
    "NOOP",
)


@dataclass(frozen=True)
class FuzzReport:
    cases: int
    crashes: tuple[str, ...]
    infeasible_accepts: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.crashes and not self.infeasible_accepts

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "crashes": list(self.crashes),
            "infeasible_accepts": list(self.infeasible_accepts),
            "ok": self.ok,
        }


def first_decision_observation(instance: Instance) -> SlotObservation:
    """The observation at the first post-warm-up decision slot."""
    return Episode(instance, warm_start(instance)).advance()


def _mutate(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return rng.randbytes(8)
    kind = rng.randrange(3)
    pos = rng.randrange(len(data))
    if kind == 0:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos:]
    return data[:pos] + data[pos + 1 :]


def _check_case(tag: str, text_or_bytes, obs, crashes, infeasible) -> None:
    try:
        if isinstance(text_or_bytes, bytes):  # undecodable bytes are replaced, as an adapter's are
            text_or_bytes = text_or_bytes.decode("utf-8", errors="replace")
        action = parse(text_or_bytes, obs)
    except Exception as exc:  # the parser contract: never raise
        crashes.append(f"{tag}: {type(exc).__name__}: {exc}")
        return
    if action.is_valid:
        try:
            apply(obs.cache, action, obs.requests)
        except Exception as exc:
            infeasible.append(f"{tag}: accepted infeasible action: {exc}")


def fuzz_parser(obs: SlotObservation, cases: int) -> FuzzReport:
    """Hammer the parser; report crashes and valid-but-infeasible accepts.

    Every near-miss line runs, even when ``cases`` is smaller; a negative ``cases`` raises.
    """
    nonnegative("cases", cases)
    rng = random.Random(FUZZ_SEED)
    crashes: list[str] = []
    infeasible: list[str] = []
    prompt = encode(obs).encode("utf-8")
    sample = serialize(
        JointAction.valid([NOOP] * obs.bs_count)
    ).encode("utf-8")
    reference_swaps = [
        _reference_swap_completion(obs, b) for b in range(1, obs.bs_count + 1)
    ]
    done = 0
    for line in NEAR_MISS_LINES:
        _check_case(f"near-miss {line!r}", line, obs, crashes, infeasible)
        done += 1
    while done < cases:
        family = done % 4
        if family == 0:
            blob = rng.randbytes(rng.randrange(1, 256))
            _check_case(f"bytes #{done}", blob, obs, crashes, infeasible)
        elif family == 1:
            _check_case(f"prompt-mutant #{done}", _mutate(prompt, rng), obs, crashes, infeasible)
        elif family == 2:
            _check_case(f"completion-mutant #{done}", _mutate(sample, rng), obs, crashes, infeasible)
        else:
            base = rng.choice(reference_swaps)
            _check_case(f"swap-mutant #{done}", _mutate(base, rng), obs, crashes, infeasible)
        done += 1
    return FuzzReport(done, tuple(crashes), tuple(infeasible))


def _reference_swap_completion(obs: SlotObservation, bs: int) -> bytes:
    """A plausible completion: first feasible swap at ``bs``, no-ops elsewhere."""
    actions = [NOOP] * obs.bs_count
    options = feasible_actions(obs.cache, bs, obs.requests)
    if len(options) > 1:
        actions[bs - 1] = options[1]
    return serialize(JointAction.valid(actions)).encode("utf-8")


def run_verification(seeds=(1, 2, 3), pbrs_slots: int = 20, fuzz_cases: int = 100_000) -> dict:
    """Full self-check on default instances and reward: fuzz + shaping audit + joint-space bound.

    Returns a JSON-ready document with one entry per suite and a summary
    ``ok`` flag. Bad seeds or a negative count raise before any suite runs.
    """
    if not seeds:
        raise StructuralError("verification needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise StructuralError(f"seeds repeat: {list(seeds)}")
    nonnegative("pbrs_slots", pbrs_slots)
    nonnegative("fuzz_cases", fuzz_cases)
    instances = [build_instance(InstanceConfig(), seed) for seed in seeds]
    fuzz = fuzz_parser(first_decision_observation(instances[0]), fuzz_cases)
    shaping: list[ShapingReport] = [
        verify_pbrs(instance, pbrs_slots, RewardConfig()) for instance in instances
    ]
    bounded = [size for report in shaping for size in report.spaces
               if size.exponential_bound_applies]
    space_ok = all(size.exponential_bound_holds for size in bounded)
    return {
        "fuzz": fuzz.to_dict(),
        "shaping": [r.to_dict() for r in shaping],
        "joint_space": {"slots_with_bound": len(bounded), "ok": space_ok},
        "ok": fuzz.ok and all(r.ok for r in shaping) and space_ok,
    }
