"""The exact part of every property-suite solve, pinned.

For each of the 25 instances the file ``data/exact_outputs.json`` holds the
sha256 of the emitted text radicals, the integer tensor, the labeling, the
branch tags of the backward pass and the multiplication count.  None of these
depend on noise-level digits, so any change to the numeric kernels must leave
them exactly as they are.

Regenerate the file only for a change to the radicals that is meant:
``PYTHONPATH=src python -m tests.test_exact_outputs``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from radicalroots import emit, find_roots, parse_polynomial, solve
from tests.conftest import rewrite_pins
from tests.test_properties import INSTANCES, _period_label_order

DATA = Path(__file__).parent / "data" / "exact_outputs.json"


def exact_outputs(poly_text, gens_text, labeling):
    if labeling != "auto":
        _, q, g, n = labeling
        roots = find_roots(parse_polynomial(poly_text), 30)
        labeling = _period_label_order(roots, q, g, n)
    report = solve(poly_text, gens_text, labeling=labeling)
    texts = "\n".join(emit(e, "text") for e in report.root_exprs)
    return {
        "radicals_sha256": hashlib.sha256(texts.encode()).hexdigest(),
        "theta": list(report.theta.values),
        "labeling": list(report.labeling.images),
        "branches": [[c.level, c.flat_index, c.degree, c.branch]
                     for c in report.branch_log],
        "multiplications": report.multiplications,
    }


@pytest.mark.parametrize("instance", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_exact_outputs_unchanged(instance):
    name, poly_text, gens_text, labeling = instance
    expected = json.loads(DATA.read_text())[name]
    assert exact_outputs(poly_text, gens_text, labeling) == expected


if __name__ == "__main__":
    rewrite_pins(DATA, {name: exact_outputs(*rest)
                        for name, *rest in INSTANCES})
