"""Record the reference digests of every digest-checked op.

    python3 perfbench/make_digests.py

Runs each op of workloads.digest_population() once against ./src and writes
perfbench/digests.json. The committed file was recorded at the reference
commit; rerun it only when an answer is meant to change, and say why in the
change that updates it.
"""

from __future__ import annotations

import json
import sys
import time

import oracles
import workloads


def main() -> int:
    workloads.CliSession().setup()
    table = {}
    start = time.perf_counter()
    try:
        for op in workloads.digest_population():
            summary = workloads.summarize(op, workloads.run_op(op))
            table[op.key] = summary["digest"]
    finally:
        workloads.CliSession().teardown()
    with open(oracles.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} digests in {time.perf_counter() - start:.1f} s -> {oracles.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
