"""Benchmark workloads: model documents generated from a workload seed.

Every workload is a fixed family of CSSP instances taken from the program's
own generators (``scalarplan.domains``).  The workload seed relabels each
instance: it shuffles the order of the document's state list, which permutes
the state ids the solver sees while leaving the problem itself, and so its
optimal cost, unchanged.  Generator seeds stay fixed because instance
difficulty varies far more than run-to-run noise.  On a shared 2-core
x86-64 machine (Python 3.11, numpy 2.4), ``random`` 1000-state instances
drawn from different generator seeds solved in 0.06 s to 3.8 s, and about
one acceptance-family instance in a hundred stalled coordinate search for
5 s to 90 s, so a run over freshly drawn instances would measure which
instances were drawn, not the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from scalarplan.domains import random_cssp_document, tireworld_document

TIREWORLD_PENALTY = (1000.0, 1.0, 1.0, 1.0, 1.0)

# Acceptance-family instance 121 alone takes about 90 s on that machine at
# the default tolerances (10,043 lambda-SSP solves in the subgradient
# fallback), longer than a benchmark run may take.  Instance 135 stalls the
# same way in about 5 s and stays, so the fallback is measured on every pass.
SMALL_BATCH_LEFT_OUT = frozenset({121})


@dataclass(frozen=True)
class Instance:
    name: str                          # stable across seeds, e.g. "acc-17"
    text: str                          # canonical JSON model document
    base_sha256: str                   # of the document before relabelling
    penalty: Optional[tuple] = None    # finite-penalty transform, if any


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    fingerprint: str                   # SHA-256 of the canonical documents
    oracle: bool                       # time oracle_solve on every instance
    cli: bool                          # time ``scalarplan solve`` on the first


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _instance(name: str, doc: dict, seed: int, k: int, penalty=None) -> Instance:
    """Instance ``k`` of a workload: ``doc`` with its state list shuffled by ``seed``."""
    rng = np.random.default_rng([seed, k])
    states = doc["states"]
    shuffled = {**doc, "states": [states[i] for i in rng.permutation(len(states))]}
    base = hashlib.sha256(_canonical(doc).encode()).hexdigest()
    return Instance(name, _canonical(shuffled), base, penalty)


def _tireworld(seed: int) -> list:
    return [_instance("tireworld-100-80-4", tireworld_document(100, 80, 4), seed, 0,
                      TIREWORLD_PENALTY)]


def _random_large(seed: int) -> list:
    return [_instance(f"random-1000-g{g}", random_cssp_document(1000, 3, 2, g), seed, g)
            for g in range(3)]


def _small_batch(seed: int) -> list:
    # the family and generator seeds of tests/test_acceptance.py
    return [_instance(f"acc-{i}",
                      random_cssp_document(6 + (7 * i) % 35, 2 + i % 2, 1 + i % 2, i),
                      seed, i)
            for i in range(200) if i not in SMALL_BATCH_LEFT_OUT]


# name -> (instance maker, time the exact LP, time the CLI).  On the
# 1000-state instances one exact LP pass costs three solve passes, and on a
# shared 2-core machine its time varied by half between runs, so random-large
# checks against LP answers cached by document instead of timing the LP.
WORKLOADS = {
    "tireworld": (_tireworld, True, True),
    "random-large": (_random_large, False, False),
    "small-batch": (_small_batch, True, False),
}


def build(name: str, seed: int) -> Workload:
    """Generate the workload's documents; the same seed gives the same bytes."""
    make, oracle, cli = WORKLOADS[name]
    instances = tuple(make(seed))
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(json.dumps([inst.name, inst.penalty]).encode())
        digest.update(inst.text.encode())
    return Workload(name, instances, digest.hexdigest(), oracle, cli)
