"""Record the current outputs as the reference the benchmark compares against.

Reads the untraced run details in ``perfbench/out/`` (one file per workload
and seed, written by ``run.py``) and writes ``perfbench/reference.json``:
for each workload and seed, the sha256 of every output and the ``scaling``
rows whose means later runs are compared with.  Run it from the repository
root after benchmark runs on the commit that defines the reference::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    reference = {}
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        detail = json.loads(path.read_text(encoding="utf-8"))
        if detail["failed"] or not detail["reproducible"]:
            print(f"skipping {path.name}: the run did not pass its checks")
            continue
        reference.setdefault(detail["workload"], {})[str(detail["seed"])] = {
            "digests": detail["digests"],
            "scaling": detail["scaling"],
        }
    if not reference:
        print("no run details found in perfbench/out", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, seeds in sorted(reference.items()):
        print(f"{workload}: seeds {', '.join(sorted(seeds, key=int))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
