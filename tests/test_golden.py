"""Golden-hash pin of the deterministic artifacts.

Regenerates the instance, report, table and dataset files through the CLI
and compares their SHA-256 digests with ``tests/data/golden_hashes.json``.
A refactor that changes a single byte of any of them fails here. The
latency sidecar is observational and not pinned.

To re-record the digests after an intended change of the file formats or
the simulated behaviour, run ``python tests/test_golden.py`` with ``src``
on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from coopcache.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_hashes.json"

_RUN_POLICIES = ("lru", "lfu", "fifo", "oracle:1", "oracle:10")


def _cases():
    """(case name, CLI argument list builder) for every pinned invocation."""
    policies = [a for spec in _RUN_POLICIES for a in ("--policy", spec)]
    return (
        ("run-2bs", lambda out: ["run", "--bs", "2", "--seeds", "1,2,3",
                                 *policies, "--out", out]),
        ("run-5bs", lambda out: ["run", "--bs", "5", "--users", "40", "--seeds", "1,2,3",
                                 *policies, "--out", out]),
        ("export-5bs", lambda out: ["export-sft", "--bs", "5", "--users", "40",
                                    "--seed", "2", "--records", "60",
                                    "--out", os.path.join(out, "sft.jsonl"),
                                    "--grpo-out", os.path.join(out, "grpo.jsonl")]),
        # a short trace, so both exports end with the truncation marker
        ("export-truncated", lambda out: ["export-sft", "--bs", "2",
                                          "--rollout-slots", "30", "--seed", "3",
                                          "--records", "100", "--horizon", "4",
                                          "--out", os.path.join(out, "sft.jsonl"),
                                          "--grpo-out", os.path.join(out, "grpo.jsonl")]),
        ("verify", lambda out: ["verify", "--seeds", "1,2", "--pbrs-slots", "4",
                                "--fuzz-cases", "2000", "--out", out]),
        ("sweep-2bs", lambda out: ["sweep", "--bs", "2", "--axis", "library_size",
                                   "--values", "100,300", "--policy", "lru",
                                   "--policy", "oracle:1", "--seeds", "1,2",
                                   "--slots", "60", "--out", out]),
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def regenerate(root: Path) -> dict[str, str]:
    """Run every case under ``root``; map ``case/file`` to its digest."""
    digests = {}
    for case, argv in _cases():
        out = root / case
        out.mkdir(parents=True)
        code = cli_main(argv(str(out)))
        assert code == 0, f"{case}: exit code {code}"
        for path in sorted(out.iterdir()):
            if path.name != "latency.csv":
                digests[f"{case}/{path.name}"] = _sha256(path)
    return digests


def test_artifacts_match_golden_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = regenerate(tmp_path)
    capsys.readouterr()
    assert sorted(actual) == sorted(golden), "the set of emitted files changed"
    drifted = sorted(name for name in golden if actual[name] != golden[name])
    assert not drifted, f"artifacts drifted from the golden hashes: {drifted}"


if __name__ == "__main__":
    os.environ.pop("COOPCACHE_OUT_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        table = regenerate(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}", file=sys.stderr)
