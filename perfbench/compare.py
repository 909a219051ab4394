"""Compare two sets of benchmark records, refusing if their inputs differ.

    python3 perfbench/compare.py BASE_DIR CHANGED_DIR

Each directory holds the ``*.json`` records that ``perfbench/run.py`` writes
to ``perfbench/results/`` (copy them aside between commits).  Records are
paired by workload, seed and trace flag.  If any pair was measured on
different input documents (different SHA-256 fingerprints), the comparison
is refused with exit code 1: a change to what the generators produce is a
change of input, not a change of speed.  Otherwise, for every workload and
declared metric, the medians over seeds are compared against the metric's
bound in ``BENCHMARK.json``; the figures measured on some workloads only are
listed beside them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_TOL = 0.1     # machine-speed difference beyond which verdicts mislead


def _load(directory: Path) -> dict:
    records = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        facts = rec["facts"]
        records[(facts["workload"], facts["seed"], facts["trace"])] = rec
    return records


def _spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, changed = (_load(Path(a)) for a in argv)
    pairs = sorted(set(base) & set(changed))
    if not pairs:
        print("compare: no (workload, seed, trace) record appears in both sets",
              file=sys.stderr)
        return 1
    differ = [key for key in pairs
              if base[key]["facts"]["fingerprint"] != changed[key]["facts"]["fingerprint"]]
    if differ:
        print("compare: refused, the input documents differ for "
              + ", ".join(f"{w} seed {s}" for w, s, _ in differ), file=sys.stderr)
        return 1

    probe = [statistics.median(recs[k]["facts"]["machine_probe_s"] for k in pairs)
             for recs in (base, changed)]
    print(f"machine probe: {probe[0]:.4g} s -> {probe[1]:.4g} s")
    if abs(probe[1] / probe[0] - 1.0) > PROBE_TOL:
        print("  the two sets ran at different machine speeds; "
              "rerun them alternating, in one session", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for workload in sorted({w for w, _, t in pairs if t == 0}):
        keys = [k for k in pairs if k[0] == workload and k[2] == 0]
        print(f"{workload} ({len(keys)} seeds)")
        for name, m in bounds.items():
            a = [base[k]["metrics"][name] for k in keys]
            b = [changed[k]["metrics"][name] for k in keys]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = _spread(a)
            if worse > m["bound"]:
                verdict = "WORSE than bound"
                status = 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread wider than bound)"
            else:
                verdict = "within bound"
            print(f"  {name:18s} {ma:12.6g} -> {mb:12.6g} {m['unit']:5s} "
                  f"worse by {worse:+.3f} (bound {m['bound']}, base spread {spread:.3f}) "
                  f"{verdict}")
        for name in ("oracle_s.p50", "cli_s", "solve_s.p95"):
            a = [base[k]["extras"][name] for k in keys if name in base[k]["extras"]]
            b = [changed[k]["extras"][name] for k in keys if name in changed[k]["extras"]]
            if a and b:
                print(f"  {name:18s} {statistics.median(a):12.6g} -> "
                      f"{statistics.median(b):12.6g} s     (not declared, no bound)")
    return status


if __name__ == "__main__":
    sys.exit(main())
