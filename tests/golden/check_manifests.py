#!/usr/bin/env python3
"""Diff live `exp_* --json` run manifests against the committed goldens.

Usage:
    python3 tests/golden/check_manifests.py [--update] EXPERIMENT=LIVE.json ...

Example:
    cargo run --release -p openspace-bench --bin exp_netsim -- --json > netsim.json
    python3 tests/golden/check_manifests.py exp_netsim=netsim.json

Each golden, `tests/golden/<EXPERIMENT>.json`, is that experiment's
manifest with the wall-clock `wall` block removed. A live manifest
passes when, with `wall` removed, it parses to exactly the golden value:
every float is compared as a parsed double, so the check is bit for bit.
On a mismatch the script prints a unified diff and exits 1.

`--update` rewrites the goldens from the live files instead. A golden
may change only with a CHANGES.md line saying which numbers moved and
why.
"""

import difflib
import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent


def stripped(path):
    manifest = json.loads(pathlib.Path(path).read_text())
    manifest.pop("wall", None)
    return manifest


def pretty(value):
    return json.dumps(value, indent=1) + "\n"


def main(argv):
    update = "--update" in argv
    pairs = [a for a in argv if a != "--update"]
    if not pairs or any("=" not in p for p in pairs):
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for pair in pairs:
        name, live_path = pair.split("=", 1)
        golden_path = GOLDEN_DIR / f"{name}.json"
        live = stripped(live_path)
        if update:
            golden_path.write_text(pretty(live))
            print(f"golden written: {golden_path.name}")
            continue
        golden = json.loads(golden_path.read_text())
        if live == golden:
            print(f"golden OK: {name}")
            continue
        failed = True
        print(f"golden MISMATCH: {name} ({live_path} vs {golden_path.name})")
        diff = difflib.unified_diff(
            pretty(golden).splitlines(),
            pretty(live).splitlines(),
            f"golden/{name}.json",
            live_path,
            lineterm="",
        )
        for i, line in enumerate(diff):
            if i == 200:
                print("... (diff truncated)")
                break
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
