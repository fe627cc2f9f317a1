"""Record reference.json: output summaries of the figures workload.

For every seed variant, runs each figures command once and stores, per
output file, the data row count and each column's exact sum (math.fsum)
and max-abs value.  run.py compares every figures pass against the
variant its seed selects.  Record on a commit whose outputs are trusted:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    root = os.getcwd()
    work = os.path.join(root, run.WORK_DIR_NAME)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    variants = {}
    try:
        runner = run.Runner(root, work)
        for variant in range(run.SEED_VARIANTS):
            summaries = {}
            for stage, args in run.figures_commands(variant):
                out = os.path.join(work, str(variant), stage)
                child = runner.cli(args + ["--out", out], None, stage)
                if child.code != 0:
                    run.report_failure(stage, f"exit code {child.code}", child)
                    return 1
                for name in sorted(os.listdir(out)):
                    columns = run.read_csv(os.path.join(out, name))
                    summaries[f"{stage}/{name}"] = run.summarize(columns)
            variants[str(variant)] = summaries
            print(f"variant {variant}: {len(summaries)} files", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"variants": variants}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
