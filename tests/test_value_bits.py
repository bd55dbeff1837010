"""The value bits of the benchmark solves that no output pin covers.

``tests/test_cli_outputs.py`` and ``tests/test_exact_outputs.py`` pin the
bytes and the exact part of the small solves; F42 x^7-2, Phi17, Phi19,
F110 x^11-2 and F156 x^13-2 come only from ``perfbench/workloads.py``.  For
each of these the file ``data/value_bits.json`` holds the sha256 of the
mpmath bits (``_mpc_``/``_mpf_``) of the evaluations, the verification
deviations, the rounding residuals and each branch choice's distances, plus
the zero notes.  A change that only reorganises the arithmetic must leave
every one of them as it is.

Regenerate the file only for a change to the values that is meant:
``PYTHONPATH=src python -m tests.test_value_bits``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from radicalroots import solve
from tests.conftest import load_perfbench

DATA = Path(__file__).parent / "data" / "value_bits.json"


def instances():
    """F42 (auto-labeled), Phi17, Phi19, F110 and F156 at the default seed."""
    workloads = load_perfbench("workloads")
    seed = workloads.DEFAULT_SEED
    return (workloads.label_search(seed)[:1] + workloads.cyclo_roots(seed)
            + workloads.deep_radicals(seed))


def _bits(value):
    """The exact bits of an mpmath real or complex as nested int tuples."""
    if hasattr(value, "_mpc_"):
        return [list(map(int, part)) for part in value._mpc_]
    return list(map(int, value._mpf_))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def value_bits(instance):
    report = solve(instance.poly, instance.generators,
                   labeling=instance.labeling, run_verification=True)
    return {
        "evaluations": _sha([_bits(v) for v in report.evaluations]),
        "verification": _sha([_bits(v) for v in report.verification]),
        "residuals": _sha([_bits(v) for v in report.theta.residuals]),
        "branch_distances": _sha([[c.level, c.flat_index, c.branch,
                                   _bits(c.best_distance),
                                   _bits(c.second_distance), _bits(c.delta)]
                                  for c in report.branch_log]),
        "zero_notes": [[z.level, z.flat_index] for z in report.zero_notes],
    }


INSTANCES = instances()


@pytest.mark.parametrize("instance", INSTANCES, ids=[i.name for i in INSTANCES])
def test_value_bits_unchanged(instance):
    expected = json.loads(DATA.read_text())[instance.name]
    assert value_bits(instance) == expected


if __name__ == "__main__":
    lines = [f"{json.dumps(i.name)}: {json.dumps(value_bits(i))}"
             for i in INSTANCES]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
