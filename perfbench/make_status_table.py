"""Write perfbench/status_table.json: the per-check statuses, condition flags
and flag equivalence of every diagnose case, from one seed.

The benchmark compares each report against this table, so a run with any
other seed checks that the outcome does not depend on the seed.  Regenerate
only when a change to the program is meant to change a status, and say so.

Run from the repository root:

    python3 perfbench/make_status_table.py [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS, build_cases, diagnose, status_row

TABLE = Path(__file__).resolve().parent / "status_table.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import statmanifold as sm

    table = {}
    for workload in WORKLOADS:
        table[workload] = {
            case.label: status_row(diagnose(sm, case, args.seed)[0])
            for case in build_cases(workload, args.seed)
        }
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
