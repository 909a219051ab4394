"""Per-instance answers and counters of ``solve_cssp``, and their differences.

The instance set is the four built-in goldens, acceptance seeds 0-1199,
``wide_outcome_model`` seeds 0-29 and the three benchmark workloads'
documents at workload seed 0 (1,437 instances).  For each, a ledger line holds a digest of the model's
pair layout, and the run report without its wall time, the cost vector's
bytes and a digest of the policy, or the exception class and message.

    PYTHONPATH=src python tests/ledger.py run new.jsonl
    PYTHONPATH=<other checkout>/src python tests/ledger.py run old.jsonl
    python tests/ledger.py diff old.jsonl new.jsonl

``run`` solves with whichever ``scalarplan`` the path gives, at a 1e6
backup budget unless ``--budget`` says otherwise.  ``diff`` prints each
instance whose answer (everything but the counters, the layout digest
included) differs, then each counter's totals and every instance whose
counters moved; it exits 1 when an answer differs or the instance sets
differ.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))   # for perfbench


def instances():
    """(name, model) of every instance, in ledger order."""
    from conftest import wide_outcome_model
    from perfbench.workloads import WORKLOADS, build
    from scalarplan.domains import GeneratorSpec, generate
    from scalarplan.model import finite_penalty_transform, load_model
    from test_search import acceptance_model
    for kind in ("getting-to-work", "coord-interesting", "coord-pathological",
                 "strong-eps-example"):
        yield f"golden/{kind}", generate(GeneratorSpec(kind))
    for seed in range(1200):
        yield f"acc-{seed}", acceptance_model(seed)
    for seed in range(30):
        yield f"wide-{seed}", wide_outcome_model(seed)
    for workload in WORKLOADS:
        for inst in build(workload, 0).instances:
            model = load_model(inst.text)
            if inst.penalty is not None:
                model = finite_penalty_transform(model, inst.penalty)
            yield f"{workload}/{inst.name}", model


def layout_digest(model) -> str:
    """SHA-256 of every pair-layout array's dtype, shape and bytes, the
    layout's other fields (``offset_list``, ``successors``) and the action
    names.  It reads public fields only, so any checkout's models have one."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(model.layout):
        value = getattr(model.layout, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        digest.update(f"{field.name} {value!r}\n".encode())
    digest.update(repr(model.action_names).encode())
    return digest.hexdigest()


def record(name: str, model, budget: int) -> dict:
    """One ledger line: the layout digest, and the solve's answer and counters
    or its exception."""
    from scalarplan.model import policy_to_names
    from scalarplan.solver import solve_cssp
    line = {"name": name, "layout": layout_digest(model)}
    try:
        outcome = solve_cssp(model, budget=budget)
    except Exception as exc:   # every failure is an answer to compare
        return {**line, "error": [type(exc).__name__, str(exc)]}
    report = outcome.report.to_dict()
    del report["wall_time"]
    policy = json.dumps(policy_to_names(model, outcome.policy), sort_keys=True)
    return {**line, "report": report, "cost": outcome.cost.tobytes().hex(),
            "policy": hashlib.sha256(policy.encode()).hexdigest()}


def run(path: str, budget: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, model in instances():
            fh.write(json.dumps(record(name, model, budget), sort_keys=True) + "\n")


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {line["name"]: line for line in map(json.loads, fh)}


def _split(line: dict) -> tuple:
    """A line's answer (a copy without the counters) and its counters."""
    answer = copy.deepcopy(line)
    counts = answer.get("report", {}).pop("counts", {})
    return answer, counts


def _changes(old, new, prefix=""):
    """(key path, old value, new value) of every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _changes(old.get(key), new.get(key), f"{prefix}{key}.")
    elif old != new:
        yield prefix.rstrip("."), old, new


def diff(old_path: str, new_path: str) -> int:
    old, new = _read(old_path), _read(new_path)
    common = [name for name in old if name in new]
    print(f"{len(common)} instances in both ledgers; only in old: "
          f"{sorted(old.keys() - new.keys())}; only in new: {sorted(new.keys() - old.keys())}")
    answers = 0
    totals = {}   # counter -> [old sum, new sum, instances fell, instances rose]
    moved = []
    for name in common:
        (a_old, c_old), (a_new, c_new) = _split(old[name]), _split(new[name])
        changed = list(_changes(a_old, a_new))
        if changed:
            answers += 1
            print(f"answer {name}: " + "; ".join(f"{k} {o!r} -> {n!r}" for k, o, n in changed))
        steps = []
        for key in sorted(c_old.keys() & c_new.keys()):
            t = totals.setdefault(key, [0, 0, 0, 0])
            t[0], t[1] = t[0] + c_old[key], t[1] + c_new[key]
            t[2] += c_new[key] < c_old[key]
            t[3] += c_new[key] > c_old[key]
            if c_new[key] != c_old[key]:
                steps.append(f"{key} {c_old[key]} -> {c_new[key]}")
        if steps:
            moved.append(f"  {name}: " + ", ".join(steps))
    print(f"answers: {answers} of {len(common)} instances differ")
    print("counters (solved on both sides): total old -> new, instances fell / rose")
    for key, (a, b, fell, rose) in totals.items():
        print(f"  {key:<14} {a} -> {b}, fell on {fell}, rose on {rose}")
    print("\n".join(moved))
    return 1 if answers or old.keys() != new.keys() else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="solve every instance and write a ledger")
    p.add_argument("out")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p = sub.add_parser("diff", help="compare two ledgers")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.budget)
        return 0
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
