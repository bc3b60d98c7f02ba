"""Record the reference outcomes the benchmark checks every round against.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout. For each workload and each of the BLOCKS
input blocks it plays one untraced round and stores every game's
(success, steps, failure_kind) row, plus digests of the report (without its
fingerprint) and the report CSV, or of each game's trajectory CSV. Record
again only for a declared change of game semantics.
"""

import json
import sys
from pathlib import Path

import run

root = Path.cwd()
sys.path.insert(0, str(root / "src"))
from rolecomms import bench, cli, table_sim  # noqa: E402

run.OUT_DIR.mkdir(exist_ok=True)
for name in sys.argv[1:] or run.WORKLOADS:
    blocks = {}
    workload = run.Workload(name, root, bench, table_sim, cli)
    for block in range(run.BLOCKS):
        result = workload.play_round(block)
        blocks[str(block)] = {
            "digests": result["digests"],
            "outcomes": [f"{key}={token}" for key, token in result["rows"].items()],
        }
        skipped = sum(token.startswith("0g") for token in result["rows"].values())
        print(f"{name} block {block}: {result['games']} games, {skipped} generation skips", flush=True)
    with open(run.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "blocks": blocks}, fh, indent=0, sort_keys=True)
        fh.write("\n")
