"""Exact LP primary costs, in a process of their own; run.py starts it.

Reads a JSON list of ``[name, document, penalty]`` items on standard input
and prints, as the last line of standard output, a JSON list of the checked
optimal primary cost of each (see ``run.exact_primary``).
"""

from __future__ import annotations

import json
import sys

import run
from workloads import Instance


def main() -> int:
    items = json.load(sys.stdin)
    primaries = [run.exact_primary(Instance(name, text, "",
                                            None if penalty is None else tuple(penalty)))
                 for name, text, penalty in items]
    print(json.dumps(primaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
