"""coopcache benchmark: one workload, one seed, one line of JSON results.

Usage, from the root of a coopcache checkout:

    python3 perfbench/run.py --workload sweep-5bs --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file sits in;
without that tree the script exits with code 2. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and reports the per-layer metrics plus the tracing
overhead. Either way the artifacts of every round are hashed and checked
against ``digests.json``. The last line of standard output is the result
object; a results file and, when traced, the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

MIN_ROUNDS = 3
IMPORTS_PER_ROUND = 3

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import coopcache\n"
    "print(time.perf_counter() - t)\n"
)


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _import_coopcache():
    if not os.path.isfile(os.path.join(SRC, "coopcache", "__init__.py")):
        _fail(f"no coopcache package under {os.path.relpath(SRC)}; run from a checkout")
    sys.path.insert(0, SRC)
    # The extern adapter child must import this checkout too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    import coopcache

    if os.path.dirname(os.path.dirname(os.path.abspath(coopcache.__file__))) != SRC:
        _fail(f"imported coopcache from {coopcache.__file__}, not from {SRC}")
    return coopcache


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, paced."""
    from pace import paced, reference_s

    before = reference_s()
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return paced(float(done.stdout.strip()), [before, reference_s()])


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    cpu = cpu or platform.processor()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "coopcache")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                src_hash.update(hashlib.sha256(fh.read()).digest())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class _TimeoutCounter(logging.Handler):
    """Counts the extern adapter's timeout warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.timeouts = 0

    def emit(self, record) -> None:
        if record.getMessage().startswith("adapter timed out"):
            self.timeouts += 1


def end_to_end(rounds, imports) -> dict:
    """Medians over the rounds of paced seconds (see pace.py).

    Every round repeats identical work. Pacing takes out the host's slow
    phases, which can outlast a whole run; the median over the rounds takes
    out the short bursts that hit one round's spans.
    """
    item_s = {i: statistics.median(r.times[i] for r in rounds) for i in rounds[0].times}
    return {
        "setup_s": statistics.median(imports) + statistics.median([r.setup_s for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": rounds[0].units / sum(item_s[i] for i in rounds[0].rate_items),
        "job_s": sum(item_s.values()),
    }


def per_layer(tracer, spans, traced, untraced, timeouts) -> dict:
    """Per traced round: calls, and self time as a share of traced wall time.

    The wall time is the host time inside the timed spans, so the reference
    work of pace.py is not part of it.
    """
    from tracing import FUNCTIONS, ORACLE_HORIZONS

    summary = tracer.summary(spans)
    n = len(traced)
    traced_wall = sum(r.wall_s for r in traced)
    names = []
    for _m, _a, name in FUNCTIONS:
        if name == "policies.oracle_best_action":
            names += [f"{name}.h{h}" for h in ORACLE_HORIZONS]
        else:
            names.append(name)
    metrics = {}
    for name in names:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_pct"] = 100.0 * self_s / traced_wall
    for name in [f"policies.oracle_best_action.h{h}" for h in ORACLE_HORIZONS]:
        calls = summary.get(name, (0, 0.0))[0]
        metrics[f"{name}.swap_frac"] = tracer.outcomes.get(name, 0) / calls if calls else 0.0
    calls = summary.get("interface.parse", (0, 0.0))[0]
    metrics["interface.parse.valid_frac"] = (
        tracer.outcomes.get("interface.parse", 0) / calls if calls else 0.0
    )
    metrics["dataset.expert_walks"] = tracer.calls_under(spans, "traffic.warm_start", "dataset.") / n
    metrics["extern.empty_completions"] = tracer.outcomes.get("policies.extern.decide", 0) / n
    rounds = traced + untraced
    metrics["extern.timeouts"] = timeouts / len(rounds)
    metrics["failed_frac"] = sum(r.failed for r in rounds) / sum(r.attempted for r in rounds)
    metrics["trace.overhead_ratio"] = (statistics.median(r.paced_s for r in traced)
                                       / statistics.median(r.paced_s for r in untraced))
    return metrics


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be >= 0")

    _import_coopcache()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    declared = _declared("per_layer" if args.trace else "end_to_end")
    counter = _TimeoutCounter()
    logging.getLogger("coopcache.policies").addHandler(counter)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer(args.workload) if args.trace else None
    imports = []

    rounds, traced, untraced = [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            if not tracer:
                # A few import samples per round spread them over the run.
                imports += [import_seconds() for _ in range(IMPORTS_PER_ROUND)]
            for traced_round in ((False, True) if tracer else (False,)):
                if traced_round:
                    tracer.install()
                try:
                    r = workload.run_round()
                finally:
                    if traced_round:
                        tracer.uninstall()
                rounds.append(r)
                (traced if traced_round else untraced).append(r)
            enough = len(untraced) >= (1 if tracer else MIN_ROUNDS)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {r.digest() for r in rounds}
    digest = rounds[0].digest()
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"].get(args.workload, {}).get(str(args.seed))
    failed = sum(r.failed for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    correct = len(digests) == 1 and recorded in (None, digest) and failed == 0

    if tracer:
        spans = tracer.spans()
        metrics = per_layer(tracer, spans, traced, untraced, counter.timeouts)
    else:
        metrics = end_to_end(rounds, imports)
    if set(metrics) != set(declared):
        _fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json", 3)

    facts = machine_facts()
    info = {k: statistics.median([r.info[k] for r in rounds]) for k in rounds[0].info}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {len(rounds)} ({len(traced)} traced)")
    print("machine " + json.dumps(facts, sort_keys=True))
    for line in rounds[0].stats:
        print("stat " + line)
    for key, value in sorted(info.items()):
        print(f"info {key}={value!r}")
    state = "no record for this seed" if recorded is None else (
        "matches record" if recorded == digest else f"MISMATCH, recorded {recorded}")
    print(f"digest {digest} ({state}; {len(digests)} distinct over {len(rounds)} rounds)")
    if len(digests) > 1 or recorded not in (None, digest):
        for name, sha in sorted(rounds[0].artifacts.items()):
            print(f"artifact {name} {sha}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in sorted(metrics)},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "digest": digest, "recorded_digest": recorded,
                   "rounds": [{"setup_s": r.setup_s, "setup_raw_s": r.setup_raw_s,
                               "times": r.times, "raw_s": r.raw,
                               "references_s": r.references} for r in rounds],
                   "imports_s": imports, "stats": rounds[0].stats, "info": info,
                   "result": result}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tracer:
        tracer.write(stem + "_spans.npz", spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
