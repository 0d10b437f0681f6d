"""Self-check suites: parser fuzzing, shaping audit, joint-space growth.

Shared by the ``verify`` CLI subcommand and the acceptance tests. The fuzz
corpus mixes raw random bytes, mutated copies of a real prompt and of a
real expert completion, and hand-written near-miss decision lines; a case
fails if the parser raises, or accepts text whose action the environment
then rejects.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import islice

from .core import NOOP, JointAction, StructuralError, apply, check_count, feasible_actions
from .episode import Episode
from .interface import SlotObservation, encode, parse, serialize
from .reward import RewardConfig, ShapingReport, verify_pbrs
from .traffic import Instance, InstanceConfig, build_instance, check_seeds, warm_start

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
        return {**asdict(self), "ok": self.ok}


def first_decision_observation(instance: Instance) -> SlotObservation:
    """The observation at the first post-warm-up decision slot."""
    return Episode(instance, warm_start(instance)).advance()


def _below(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` as CPython 3.11 draws it: ``n.bit_length()`` bits, redrawn while >= n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


#: What a drawn byte b puts into a mutant: the byte itself; in ASCII text, its
#: character, or the one U+FFFD that a lone byte >= 0x80 among ASCII bytes
#: decodes to, so a text mutant is the decoded byte mutant of the same draws.
_BYTE_CELLS = tuple(bytes((b,)) for b in range(256))
_ASCII_CELLS = tuple(chr(b) if b < 0x80 else "\ufffd" for b in range(256))


def _mutate(data, getrandbits, cells=_BYTE_CELLS):
    """Overwrite, insert or delete one byte at a random position of ``data``,
    which is never empty: the prompt, the no-op completion and every swap are
    not. ``data`` is bytes, or ASCII text with ``cells=_ASCII_CELLS``.

    Draws from ``getrandbits`` exactly what ``random.Random``'s ``randrange``
    would, so the mutants are those of the same generator.
    """
    kind = _below(getrandbits, 3)
    pos = _below(getrandbits, len(data))
    if kind == 2:
        return data[:pos] + data[pos + 1 :]
    cell = cells[_below(getrandbits, 256)]
    return data[:pos] + cell + data[pos + 1 - kind :]  # kind 0 overwrites, 1 inserts


#: The tag of case n by family, n % 4.
_FAMILIES = ("bytes", "prompt-mutant", "completion-mutant", "swap-mutant")


def _fuzz_texts(obs: SlotObservation):
    """The fuzz corpus, endless: the near-miss lines, then four families in turn.

    Case n, counted from the first near-miss line, belongs to family n % 4:
    1 to 255 random bytes, a mutant of the prompt, of the all-no-op
    completion, or of a random BS's first feasible swap. Every draw comes
    from one ``random.Random(FUZZ_SEED)``, and every case is the text of
    its bytes with undecodable bytes replaced, as an adapter's are. The
    mutated seeds are ASCII, so their mutants are made as text directly.
    """
    getrandbits = random.Random(FUZZ_SEED).getrandbits
    prompt = encode(obs)
    sample = serialize(JointAction.valid([NOOP] * obs.bs_count))
    swaps = [_reference_swap_completion(obs, b) for b in range(1, obs.bs_count + 1)]
    if not all(seed.isascii() for seed in (prompt, sample, *swaps)):
        raise StructuralError("the fuzz seeds must be ASCII text")
    yield from NEAR_MISS_LINES
    n = len(NEAR_MISS_LINES)
    while True:
        family = n % 4
        if family == 0:
            size = 1 + _below(getrandbits, 255)
            yield getrandbits(8 * size).to_bytes(size, "little").decode("utf-8", errors="replace")
        elif family == 1:
            yield _mutate(prompt, getrandbits, _ASCII_CELLS)
        elif family == 2:
            yield _mutate(sample, getrandbits, _ASCII_CELLS)
        else:
            yield _mutate(swaps[_below(getrandbits, len(swaps))], getrandbits, _ASCII_CELLS)
        n += 1


def _case_tag(n: int) -> str:
    if n < len(NEAR_MISS_LINES):
        return f"near-miss {NEAR_MISS_LINES[n]!r}"
    return f"{_FAMILIES[n % 4]} #{n}"


def fuzz_parser(obs: SlotObservation, cases: int) -> FuzzReport:
    """Hammer the parser; report crashes and valid-but-infeasible accepts.

    Every near-miss line runs, even when ``cases`` is smaller; a ``cases`` that is not a
    count raises.
    """
    check_count("cases", cases)
    total = max(cases, len(NEAR_MISS_LINES))
    cache, requests = obs.cache, obs.requests
    crashes: list[str] = []
    infeasible: list[str] = []
    for n, text in enumerate(islice(_fuzz_texts(obs), total)):
        try:
            action = parse(text, obs)
        except Exception as exc:  # the parser contract: never raise
            crashes.append(f"{_case_tag(n)}: {type(exc).__name__}: {exc}")
            continue
        if action.is_valid:
            try:
                apply(cache, action, requests)
            except Exception as exc:
                infeasible.append(f"{_case_tag(n)}: accepted infeasible action: {exc}")
    return FuzzReport(total, tuple(crashes), tuple(infeasible))


def _reference_swap_completion(obs: SlotObservation, bs: int) -> str:
    """A plausible completion: first feasible swap at ``bs``, no-ops elsewhere."""
    actions = [NOOP] * obs.bs_count
    options = feasible_actions(obs.cache, bs, obs.requests)
    if len(options) > 1:
        actions[bs - 1] = options[1]
    return serialize(JointAction.valid(actions))


def run_verification(seeds=(1, 2, 3), pbrs_slots: int = 20, fuzz_cases: int = 100_000) -> dict:
    """Full self-check on default instances and reward: fuzz + shaping audit + joint-space bound.

    Returns a JSON-ready document with one entry per suite and a summary
    ``ok`` flag. Bad seeds or a count that is not one raise before any suite runs.
    """
    check_seeds(seeds)
    check_count("pbrs_slots", pbrs_slots)
    check_count("fuzz_cases", fuzz_cases)
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
