#!/usr/bin/env python3
"""Compare benchmark result files: ``compare.py BASE.json NEW.json [more…]``.

Every file after the first is compared with the first.  One row per
workload x end-to-end metric with both values, the ratio with its base,
and a verdict from the bounds in ``BENCHMARK.json``:

* ``regressed`` / ``improved`` — worse / better than the base by more
  than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — one side's own samples spread too wide (quartile
  distance / median / sqrt(n) exceeds the bound), so the run cannot
  tell.

Exact counters and ``result_digest`` values that differ are listed
under "simulated results changed", call and span counts that differ
under "host call counts changed": both compare without noise.  Exits
non-zero on any ``regressed`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Units of per-layer metrics that are host time, hence noisy; every
#: other per-layer metric is an exact count.
TIME_UNITS = ("s", "us", "x")


def spread(entry: Dict[str, object]) -> float:
    """How far the run's own samples leave its median uncertain: their
    quartile distance as a share of the median, over the square root of
    their number (0 for a single sample)."""
    if entry.get("n", 1) < 2 or not entry.get("median"):
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["median"] / math.sqrt(entry["n"])


def verdict(
    base: Dict[str, object], new: Dict[str, object], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, share by which ``new`` is worse than ``base``)."""
    change = (new["value"] - base["value"]) / base["value"]
    worse = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def compare(
    base: Dict[str, object], new: Dict[str, object], benchmark: Dict[str, object]
) -> Tuple[List[str], bool]:
    """Report lines and whether ``new`` is acceptable against ``base``."""
    lines: List[str] = []
    acceptable = True
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    exact = [
        m["name"] for m in benchmark["per_layer"] if m["unit"] not in TIME_UNITS
    ]
    for side, result in (("base", base), ("new", new)):
        if not result.get("comparable", False):
            lines.append(f"note: the {side} result is a --quick run, not comparable")
    changed: List[str] = []
    recounted: List[str] = []
    same_inputs = base.get("seed") == new.get("seed")
    if not same_inputs:
        lines.append(
            f"note: seeds differ ({base.get('seed')} vs {new.get('seed')}); "
            "simulated results are not expected to match"
        )
    lines.append(
        f"{'workload':<18}{'metric':<16}{'base':>12}{'new':>12}  "
        f"{'new/base':>8}  verdict"
    )
    for name, old in base["workloads"].items():
        cur = new["workloads"].get(name)
        if cur is None:
            continue
        for metric, info in end_to_end.items():
            a, b = old["metrics"].get(metric), cur["metrics"].get(metric)
            if not a or not b or not a.get("value") or b.get("value") is None:
                continue
            what, worse = verdict(a, b, info["better"], info["bound"])
            acceptable &= what != "regressed"
            lines.append(
                f"{name:<18}{metric:<16}{a['value']:>12.5g}{b['value']:>12.5g}  "
                f"{b['value'] / a['value']:>8.3f}  {what} "
                f"({worse:+.1%} worse, bound {info['bound']:.0%}, "
                f"spreads {spread(a):.1%} / {spread(b):.1%}) {info['unit']}"
            )
        if cur["failed_share"] > old["failed_share"]:
            acceptable = False
            lines.append(
                f"{name:<18}failed_share     {old['failed_share']:>12.4f}"
                f"{cur['failed_share']:>12.4f}            regressed (any increase is)"
            )
        if not same_inputs:
            continue
        if old.get("spec_hash") != cur.get("spec_hash"):
            changed.append(f"{name}: spec_hash {old.get('spec_hash')} -> {cur.get('spec_hash')}")
        digests = cur.get("result_digests", {})
        for label, digest in old.get("result_digests", {}).items():
            if label in digests and digests[label] != digest:
                changed.append(f"{name}: result_digest of {label!r} differs")
        for metric in exact:
            a, b = old["metrics"].get(metric), cur["metrics"].get(metric)
            if a and b and a["value"] != b["value"]:
                # call and span counts are host work, not simulated results
                host = metric.endswith((".calls", "_n"))
                (recounted if host else changed).append(
                    f"{name}: {metric} {a['value']} -> {b['value']}"
                )
    for heading, found in (
        ("simulated results changed:", changed),
        ("host call counts changed:", recounted),
    ):
        if found:
            lines.append("")
            lines.append(heading)
            lines.extend(f"  {line}" for line in found)
    return lines, acceptable


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(paths[0]).read_text())
    acceptable = True
    for path in paths[1:]:
        print(f"== {path} against {paths[0]} (base)")
        lines, ok = compare(base, json.loads(Path(path).read_text()), benchmark)
        print("\n".join(lines))
        acceptable &= ok
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
