"""Differential property test of ``load_model`` on mutated model documents.

Valid documents get one to three drawn edits: a field, record, cost entry
or outcome replaced by a value of another type or shape, NaN, an infinity
or an integer beyond double range, or removed.  ``load_model`` must load
the document or raise MalformedModel, and give the per-record reference
loader's model byte for byte or raise its exception class and message
(``conftest.assert_loads_like_reference``).
"""

import copy
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import assert_loads_like_reference  # noqa: E402
from scalarplan.domains import getting_to_work_document, random_cssp_document  # noqa: E402
from scalarplan.errors import MalformedModel  # noqa: E402
from scalarplan.model import load_model  # noqa: E402

ODD_VALUES = st.sampled_from([
    None, True, False, 0, -1, 2, 10 ** 400, -10 ** 400, 2 ** 1024 - 2 ** 970,
    math.nan, math.inf, -math.inf, -0.0, -0.5, 0.25, 0.5, 1.0, 1e308,
    "", "1.0", "s0", "g", [], [1.0], [1, 0, 0], {}, {"target": "g"},
    {"target": "g", "prob": 1.0},
])
# numbers and outcomes are edited most, as most of the checks are theirs
PARTS = st.sampled_from(["top", "record", "field", "cost", "cost", "cost",
                         "outcome", "prob", "prob", "prob", "target"])


def base_documents():
    """The commute golden and a small random instance, each with a goal record."""
    docs = [getting_to_work_document(), random_cssp_document(7, 2, 1, 3)]
    for doc in docs:
        goal = doc["goals"][0]
        doc["actions"].insert(1, {"name": "stay", "source": goal,
                                  "cost": [1.0] * (doc["n"] + 1),
                                  "outcomes": [{"target": goal, "prob": 1.0}]})
    return docs


def edit(doc, draw):
    """Replace or remove one drawn part of ``doc``, when that part exists."""
    def put(container, key):
        if isinstance(container, dict) and draw(st.integers(0, 3)) == 0:
            container.pop(key, None)
        else:
            container[key] = copy.deepcopy(draw(ODD_VALUES))

    records = doc.get("actions")
    part = draw(PARTS)
    if part == "top":
        put(doc, draw(st.sampled_from(["states", "initial", "goals", "n", "bounds",
                                       "actions"])))
        return
    if not isinstance(records, list) or not records:
        return
    r = draw(st.integers(0, len(records) - 1))
    rec = records[r]
    if part == "record":
        put(records, r)
        return
    if not isinstance(rec, dict):
        return
    if part == "field":
        put(rec, draw(st.sampled_from(["name", "source", "cost", "outcomes"])))
        return
    field = "cost" if part == "cost" else "outcomes"
    entries = rec.get(field)
    if not isinstance(entries, list) or not entries:
        return
    i = draw(st.integers(0, len(entries) - 1))
    if part in ("prob", "target") and isinstance(entries[i], dict):
        put(entries[i], part)
    elif draw(st.integers(0, 3)) == 0:
        del entries[i]      # a short cost row, or one outcome fewer
    else:
        put(entries, i)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_documents_load_like_the_reference(data):
    doc = base_documents()[data.draw(st.integers(0, 1))]
    for _ in range(data.draw(st.integers(1, 3))):
        edit(doc, data.draw)
    try:
        load_model(doc)
    except MalformedModel:   # any other exception fails the test
        pass
    assert_loads_like_reference(doc)
