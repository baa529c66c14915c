"""Compare two sets of benchmark results taken on the same host.

    python3 cdrwbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the lines ``run.py --out FILE`` appended.  The comparison
refuses (exit 2) to diff results whose host records differ -- core count,
CPU model, Python, numpy or scipy version -- because such a diff measures
the hosts, not the code.  Otherwise it prints, per workload and end-to-end
metric, the median of each side and the change, and marks a metric REGRESSED
when the new median is worse than the old by more than the bound in
BENCHMARK.json.  Exit code 1 means a regression or an incorrect run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def hosts(runs: list[dict[str, Any]]) -> list[str]:
    return sorted({json.dumps(run["record"]["host"], sort_keys=True) for run in runs})


def medians(runs: list[dict[str, Any]]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["record"]["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["record"]["workload"], name), []).append(metric["value"])
    return {key: statistics.median(found) for key, found in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (load(Path(arg)) for arg in argv)
    old_hosts, new_hosts = hosts(old), hosts(new)
    if len(old_hosts) != 1 or old_hosts != new_hosts:
        print("compare: refusing to diff results taken on different hosts:", file=sys.stderr)
        for side, found in (("old", old_hosts), ("new", new_hosts)):
            for host in found:
                print(f"  {side}: {host}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    before, after = medians(old), medians(new)
    status = 0
    for side, runs in (("old", old), ("new", new)):
        codes = sorted({(r["record"]["commit"], r["record"]["src_sha256"][:12]) for r in runs})
        print(f"{side}: {len(runs)} runs, commit/src {codes}")
        if not all(r["result"]["correct"] for r in runs):
            print(f"{side}: some runs answered incorrectly or leaked")
            status = 1
    print(f"{'workload':12s} {'metric':16s} {'old':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}")
    for key in sorted(set(before) & set(after)):
        workload, name = key
        spec = bounds.get(name)
        if spec is None:
            continue
        change = (after[key] - before[key]) / before[key] if before[key] else 0.0
        worse = change if spec["better"] == "lower" else -change
        verdict = "REGRESSED" if worse > spec["bound"] else ""
        if verdict:
            status = 1
        print(f"{workload:12s} {name:16s} {before[key]:12.4f} {after[key]:12.4f} "
              f"{change:+8.2%} {spec['bound']:6.2f} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
