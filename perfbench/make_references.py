"""Regenerate ``references.json``: fingerprints of the first requests of each
workload at the default seed.

Run from the root of a checkout:

    python3 perfbench/make_references.py

The counts cover about twice the requests a 20-second run makes on a
2-core Xeon; later requests are checked by the oracles only.  Only a
change that alters the program's outputs on purpose needs new references.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = {"sweep": 700, "analyze": 80, "compare": 1600, "attack": 600}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import workloads

    references = {}
    for name, count in COUNTS.items():
        workload = workloads.WORKLOADS[name]()
        fingerprints = []
        for index in range(count):
            request = workload.request(workloads.DEFAULT_SEED, index)
            result = workload.check(request, workload.execute(request))
            if result.problems:
                print(f"{name} request {index}: {result.problems}", file=sys.stderr)
                return 1
            fingerprints.append(result.fingerprint)
        problems = workload.finish()
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        references[name] = fingerprints
        print(f"{name}: {count} references", flush=True)
    out = {"seed": workloads.DEFAULT_SEED, "workloads": references}
    (Path(__file__).resolve().parent / "references.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
