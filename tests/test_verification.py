"""Parser-fuzz corpus pin and report tests.

``fuzz_parser`` must hand ``parse`` the same texts, in the same order, on
every version. ``tests/data/fuzz_corpus.json`` holds the SHA-256 of the
first 100k texts drawn on the default 2-BS seed-1 observation, and the
number of them ``parse`` accepted (each then goes through ``apply``). To
re-record it after an intended change of the corpus, run
``python tests/test_verification.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from coopcache import verification
from coopcache.core import NOOP, JointAction, StructuralError
from coopcache.interface import encode, serialize
from coopcache.traffic import InstanceConfig, build_instance

CORPUS_PATH = Path(__file__).parent / "data" / "fuzz_corpus.json"

CORPUS_CASES = 100_000


def _observation(bs_count: int):
    config = InstanceConfig() if bs_count == 2 else InstanceConfig(bs_count=bs_count, users=40)
    return verification.first_decision_observation(build_instance(config, 1))


def _fuzz_recording(obs, cases):
    """``fuzz_parser``'s report, and every text it handed ``parse``, in order."""
    texts = []
    real_parse = verification.parse

    def recording_parse(text, observation):
        texts.append(text)
        return real_parse(text, observation)

    verification.parse = recording_parse
    try:
        report = verification.fuzz_parser(obs, cases)
    finally:
        verification.parse = real_parse
    return report, texts


def _corpus_record(cases: int) -> dict:
    """The digest of the texts ``fuzz_parser`` parses, and how many it accepts."""
    obs = _observation(2)
    report, texts = _fuzz_recording(obs, cases)
    assert len(texts) == report.cases == cases
    digest = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8", "surrogatepass")
        digest.update(len(data).to_bytes(4, "little"))
        digest.update(data)
    accepted = sum(verification.parse(text, obs).is_valid for text in texts)
    return {"cases": cases, "accepted": accepted, "sha256": digest.hexdigest()}


def test_the_fuzz_corpus_matches_its_recorded_digest():
    assert _corpus_record(CORPUS_CASES) == json.loads(CORPUS_PATH.read_text())


# The fuzz loop as it was drawn with ``random.Random``'s own methods, kept as
# the reference the corpus, its tags and its report must agree with.
def _reference_mutate(data, rng):
    if not data:
        return rng.randbytes(8)
    kind = rng.randrange(3)
    pos = rng.randrange(len(data))
    if kind == 0:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos:]
    return data[:pos] + data[pos + 1 :]


def _reference_cases(obs, cases):
    """(tag, text or bytes) of every case, as the reference loop drew them."""
    rng = random.Random(verification.FUZZ_SEED)
    prompt = encode(obs).encode("utf-8")
    sample = serialize(JointAction.valid([NOOP] * obs.bs_count)).encode("utf-8")
    reference_swaps = [verification._reference_swap_completion(obs, b).encode("utf-8")
                       for b in range(1, obs.bs_count + 1)]
    done = 0
    for line in verification.NEAR_MISS_LINES:
        yield f"near-miss {line!r}", line
        done += 1
    while done < cases:
        family = done % 4
        if family == 0:
            yield f"bytes #{done}", rng.randbytes(rng.randrange(1, 256))
        elif family == 1:
            yield f"prompt-mutant #{done}", _reference_mutate(prompt, rng)
        elif family == 2:
            yield f"completion-mutant #{done}", _reference_mutate(sample, rng)
        else:
            base = rng.choice(reference_swaps)
            yield f"swap-mutant #{done}", _reference_mutate(base, rng)
        done += 1


def _reference_text(case):
    return case.decode("utf-8", errors="replace") if isinstance(case, bytes) else case


def _reference_report(obs, cases):
    crashes, infeasible = [], []
    done = 0
    for tag, case in _reference_cases(obs, cases):
        done += 1
        try:
            action = verification.parse(_reference_text(case), obs)
        except Exception as exc:
            crashes.append(f"{tag}: {type(exc).__name__}: {exc}")
            continue
        if action.is_valid:
            try:
                verification.apply(obs.cache, action, obs.requests)
            except Exception as exc:
                infeasible.append(f"{tag}: accepted infeasible action: {exc}")
    return verification.FuzzReport(done, tuple(crashes), tuple(infeasible))


@pytest.mark.parametrize("bs_count", [2, 5])
def test_the_corpus_is_the_one_random_methods_draw(bs_count):
    obs = _observation(bs_count)
    report, texts = _fuzz_recording(obs, 20_000)
    assert texts == [_reference_text(case) for _, case in _reference_cases(obs, 20_000)]
    assert report == _reference_report(obs, 20_000)
    assert report.ok and any(verification.parse(t, obs).is_valid for t in texts)


@pytest.mark.parametrize("cases", [0, 7, 20, 21, 403])
def test_short_runs_match_the_reference(cases):
    obs = _observation(2)
    report = verification.fuzz_parser(obs, cases)
    assert report == _reference_report(obs, cases)
    assert report.cases == max(cases, len(verification.NEAR_MISS_LINES))


def test_a_crash_and_an_infeasible_accept_are_tagged_as_before(monkeypatch):
    """A parse that raises on every prompt mutant and an apply that refuses the
    all-no-op give the reference loop's texts, case by case, and nothing else."""
    obs = _observation(2)
    real_parse, real_apply = verification.parse, verification.apply
    noop = JointAction.valid([NOOP] * obs.bs_count)

    def crashing_parse(text, observation):
        if "REQUESTS" in text:  # each BS has the line: one byte changed leaves one
            raise KeyError("planted")
        return real_parse(text, observation)

    def refusing_apply(cache, action, requests):
        if action == noop:
            raise ValueError("planted refusal")
        return real_apply(cache, action, requests)

    monkeypatch.setattr(verification, "parse", crashing_parse)
    monkeypatch.setattr(verification, "apply", refusing_apply)
    report = verification.fuzz_parser(obs, 2_000)
    assert report.crashes == tuple(
        f"prompt-mutant #{n}: KeyError: 'planted'" for n in range(21, 2_000, 4))
    assert report.infeasible_accepts and all(
        re.fullmatch(r"completion-mutant #\d+: accepted infeasible action: planted refusal", entry)
        for entry in report.infeasible_accepts)
    assert report == _reference_report(obs, 2_000)


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_a_text_mutant_is_the_decoded_byte_mutant_of_the_same_draws(seed):
    """On ASCII data every drawn byte, 0x80 and up included, gives the text the
    byte mutant decodes to with replacement, from the same draws."""
    rng = random.Random(seed)
    for _ in range(3000):
        text = "".join(chr(rng.randrange(128)) for _ in range(rng.randint(1, 6)))
        state = rng.getstate()
        mutant = verification._mutate(text, rng.getrandbits, verification._ASCII_CELLS)
        rng.setstate(state)
        data = verification._mutate(text.encode("ascii"), rng.getrandbits)
        assert mutant == data.decode("utf-8", errors="replace"), (text, data)


def test_the_corpus_refuses_a_seed_that_is_not_ascii(monkeypatch):
    monkeypatch.setattr(verification, "encode", lambda obs: "SLOT 1 \u00e9")
    with pytest.raises(StructuralError, match="^the fuzz seeds must be ASCII text$"):
        verification.fuzz_parser(_observation(2), 30)


if __name__ == "__main__":
    CORPUS_PATH.write_text(json.dumps(_corpus_record(CORPUS_CASES), indent=2) + "\n")
    print(f"wrote {CORPUS_PATH}")
