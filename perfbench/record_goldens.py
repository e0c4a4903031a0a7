"""Write goldens.json: the accuracy every full-size workload variant gives.

The benchmark's output check compares each pass against these values, so
record them once, on the commit whose numbers the benchmark guards:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_program()
    from workloads import GOLDEN_GROUP, GOLDENS_PATH, VARIANTS, WORKLOADS

    goldens: dict = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    for name, group in GOLDEN_GROUP.items():
        workload = WORKLOADS[name]
        goldens[group] = {}
        for seed in range(VARIANTS):
            if workload.golden_key(seed) in goldens[group]:
                continue
            work = Path(tempfile.mkdtemp(prefix="goldens-", dir=run.WORK_DIR))
            try:
                inputs = workload.setup(work, seed)
                _, outcome = run.timed_pass(workload, inputs, work / "out", None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if outcome is None or outcome.problems:
                raise SystemExit(f"{name} seed {seed} failed its check; no goldens written")
            values = {"translation_rmse_m": outcome.translation_rmse_m,
                      "orientation_rmse_deg": outcome.orientation_rmse_deg}
            if outcome.rmse_ratio is not None:
                values["rmse_ratio"] = outcome.rmse_ratio
            goldens[group][workload.golden_key(seed)] = values
            print(f"{name} seed {seed}: {values}", flush=True)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
