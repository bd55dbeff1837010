"""The bytes the command line prints, pinned.

For each case the file ``data/cli_outputs.json`` holds the sha256 of stdout
and the exit code of ``radicalroots`` run in-process:

- ``solve --verify --stats`` in text, json and latex for the 25 property-suite
  instances, ``x^4+x+1`` (S4), ``x^5-2`` (F20) and ``2x^3-3`` (S3);
- ``roots`` at the default and at 40 digits, ``check`` and ``series`` for
  the D5 quintic, S4 and ``2x^3-3``.

Regenerate the file only for a change to the output that is meant:
``PYTHONPATH=src python -m tests.test_cli_outputs``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from radicalroots import find_roots, parse_polynomial
from radicalroots.cli import main
from tests.test_properties import INSTANCES, _period_label_order

DATA = Path(__file__).parent / "data" / "cli_outputs.json"

EXTRA = [
    ("S4 x^4+x+1", "x^4+x+1", "(1,2,3,4);(1,2)", "auto"),
    ("F20 x^5-2", "x^5-2", "(1,2,3,4,5);(2,3,5,4)", "auto"),
    ("S3 2x^3-3", "2x^3-3", "(1,2,3);(1,2)", "auto"),
]
SMALL = [INSTANCES[-1], EXTRA[0], EXTRA[2]]


def _solve_argv(poly_text, gens_text, labeling):
    argv = ["--poly", poly_text, "--generators", gens_text]
    if labeling != "auto":
        _, q, g, n = labeling
        order = _period_label_order(find_roots(parse_polynomial(poly_text), 30),
                                    q, g, n)
        argv += ["--root-order", ",".join(map(str, order))]
    return argv


def _cases():
    cases = []
    for name, poly_text, gens_text, labeling in INSTANCES + EXTRA:
        argv = _solve_argv(poly_text, gens_text, labeling)
        for fmt in ("text", "json", "latex"):
            cases.append((f"solve {fmt} {name}",
                          ["solve", *argv, "--verify", "--stats",
                           "--format", fmt]))
    for name, poly_text, gens_text, _ in SMALL:
        degree = parse_polynomial(poly_text).degree
        cases += [
            (f"roots {name}", ["roots", "--poly", poly_text]),
            (f"roots --digits 40 {name}",
             ["roots", "--poly", poly_text, "--digits", "40"]),
            (f"check {name}",
             ["check", "--poly", poly_text, "--generators", gens_text]),
            (f"series {name}",
             ["series", "--generators", gens_text, "--degree", str(degree)]),
        ]
    return cases


CASES = _cases()


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_unchanged(name, argv):
    expected = json.loads(DATA.read_text())[name]
    assert cli_output(argv) == expected


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(cli_output(argv))}"
             for name, argv in CASES]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
