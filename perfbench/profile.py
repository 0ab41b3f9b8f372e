"""Summarize a traced run's spans: self time by layer and by span name.

    python3 perfbench/profile.py perfbench/out/spans-battery-1.jsonl

The spans file is written by every ``--trace 1`` run.  Shares are of the
self time of all spans (on serve, several threads overlap, so the total
exceeds wall time).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def summarize(path: str, top: int = 12) -> str:
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    with open(path) as f:
        for line in f:
            sp = json.loads(line)
            by_layer[sp["layer"]] += sp["self_s"]
            entry = by_name[sp["name"]]
            entry[0] += sp["self_s"]
            entry[1] += 1
    total = sum(by_layer.values()) or 1.0
    lines = [f"{path}: {total:.3f} s of self time", "  by layer:"]
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<14} {s:9.3f} s {s / total:6.1%}")
    lines.append(f"  top {top} spans by self time:")
    for name, (s, n) in sorted(by_name.items(), key=lambda kv: -kv[1][0])[:top]:
        lines.append(f"    {name:<32} {s:9.3f} s {s / total:6.1%} {n:8d} calls")
    return "\n".join(lines)


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(summarize(arg))
