"""Compare two full-set results of ``bench_e2e.py``, workload by workload.

Usage::

    python benchmarks/e2e/compare.py BEFORE.json AFTER.json

Each end-to-end metric is judged against its bound in ``BENCHMARK.json``
(``fail_frac`` has bound 0):

* **unresolved**: either side's spread between quartiles, as a share of
  its median, exceeds the bound, unless every run of AFTER beats every
  run of BEFORE (then **improved**);
* **worse**: AFTER's median is worse than BEFORE's by more than the bound;
* **improved**: AFTER's median is better by more than BEFORE's own
  spread between quartiles;
* **unchanged**: otherwise.

Count-type per-layer metrics must match exactly (**same** or **differs**);
per-layer times have no bound and show only their ratio.  The exit
status is 1 when any metric is worse or any count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def judge(before: dict, after: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old, new = before["median"], after["median"]
    # Relative change, > 0 when worse (absolute when the base is 0).
    delta = sign * (new - old) / (old or 1.0)
    spreads = [
        (side["q3"] - side["q1"]) / side["median"]
        for side in (before, after) if "q1" in side and side["median"]
    ]
    if spreads and max(spreads) > bound:
        if all(sign * (n - o) < 0 for n in after["values"]
               for o in before["values"]):
            return "improved"
        return "unresolved"
    if delta > bound:
        return "worse"
    if delta < 0 and -delta > (spreads[0] if spreads else 0.0):
        return "improved"
    return "unchanged"


def compare(before: dict, after: dict, spec: dict) -> tuple[list, bool]:
    """Table rows ``(workload, metric, before, after, change, verdict)``
    and whether the comparison passes."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    bounds["fail_frac"] = (0.0, "lower")
    rows, ok = [], True
    for name in before["workloads"]:
        if name not in after["workloads"]:
            rows.append((name, "*", "", "", "", "missing"))
            ok = False
            continue
        b, a = before["workloads"][name], after["workloads"][name]
        for metric, (bound, better) in bounds.items():
            old, new = b["end_to_end"][metric], a["end_to_end"][metric]
            verdict = judge(old, new, bound, better)
            ok = ok and verdict != "worse"
            rows.append((name, metric, old["median"], new["median"],
                         _change(old["median"], new["median"]), verdict))
        for metric, old in b["per_layer"].items():
            new = a["per_layer"].get(metric)
            if new is None:
                verdict = "missing"
                ok = False
            elif old["unit"] == "count":
                verdict = "same" if old["value"] == new["value"] else "differs"
                ok = ok and verdict == "same"
            else:
                verdict = ""
            rows.append((name, metric, old["value"],
                         new["value"] if new else None,
                         _change(old["value"], new["value"]) if new else "",
                         verdict))
    return rows, ok


def _change(old: float, new: float) -> str:
    if old == new:
        return "0%"
    if old == 0:
        return "new"
    return f"{(new - old) / old:+.1%}"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return str(int(value))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(BENCHMARK.read_text())
    rows, ok = compare(before, after, spec)
    print(f"{'workload':<14} {'metric':<42} {'before':>12} {'after':>12} "
          f"{'change':>8}  verdict")
    for name, metric, old, new, change, verdict in rows:
        print(f"{name:<14} {metric:<42} {_fmt(old):>12} {_fmt(new):>12} "
              f"{change:>8}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
