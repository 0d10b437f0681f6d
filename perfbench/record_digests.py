"""Record the artifact digests the benchmark's correctness gate checks.

Usage, from the root of a coopcache checkout:

    python3 perfbench/record_digests.py 0-31

runs one untimed round of every workload for each seed in the range and
rewrites ``digests.json``. Re-record only for a change that is meant to
alter coopcache's output bytes, and say so where the change is described:
a change that only claims speed must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DIGESTS, OUT_DIR, _import_coopcache


def main(argv) -> int:
    if len(argv) != 1 or "-" not in argv[0]:
        print(__doc__, file=sys.stderr)
        return 2
    lo, hi = (int(x) for x in argv[0].split("-"))
    _import_coopcache()
    from workloads import WORKLOADS

    workdir = os.path.join(OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            digests[name] = {}
            for seed in range(lo, hi + 1):
                r = workload(seed, workdir).run_round()
                if r.failed:
                    raise SystemExit(f"{name} seed {seed}: {r.failed} failed operations")
                digests[name][str(seed)] = r.digest()
                print(name, seed, digests[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
