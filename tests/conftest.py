import json
import sys
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest
from mpmath import mp

import radicalroots
from radicalroots import closure, find_roots, parse_cycles, parse_polynomial
from radicalroots.resolvent import axis_lines


def pytest_report_header(config):
    """Name the package the tests import: pyproject.toml's ``pythonpath``
    puts this checkout's ``src`` ahead of ``PYTHONPATH``."""
    return f"radicalroots: {Path(radicalroots.__file__).parent}"

# x^5 + 20x + 32: the dihedral quintic used as the main regression, with its
# 13-decimal root approximations (labels match the group's permutation action)
QUINTIC_TEXT = "x^5+20x+32"
QUINTIC_GENERATORS = "(1,2,3,4,5);(1,4)(2,3)"
QUINTIC_ROOT_STRINGS = (
    ("-1.3639621650899", "0"),
    ("-1.1078748900075", "-1.7187891044417"),
    ("1.7898559725525", "1.5514288842038"),
    ("1.7898559725525", "-1.5514288842038"),
    ("-1.1078748900075", "1.7187891044417"),
)
QUINTIC_THETA = (0, 0, -10000000, 35000000, 10000000, 15000000,
                 10000000, 15000000, -10000000, 35000000)


@pytest.fixture(scope="session")
def quintic():
    return parse_polynomial(QUINTIC_TEXT)


@pytest.fixture(scope="session")
def d5(quintic):
    gens = [parse_cycles(t, 5) for t in QUINTIC_GENERATORS.split(";")]
    return closure(gens)


@pytest.fixture(scope="session")
def quintic_roots_14(quintic):
    return find_roots(quintic, 14)


def match_root_order(root_set, targets, digits=14):
    """1-based indices of the root closest to each (re, im) string pair."""
    order = []
    for re_s, im_s in targets:
        with mp.workdps(digits):
            t = mp.mpc(re_s, im_s)
        order.append(min(range(root_set.n),
                         key=lambda i: float(abs(root_set.roots[i] - t))) + 1)
    return order


def reindex_axis(tensor, level, t, c):
    """The tensor with entry j of each line along axis ``level`` replaced by
    entry t*j + c (mod p) of that line."""
    p = tensor.radices[level - 1]
    data = list(tensor.data)
    for line in axis_lines(tensor.radices, level - 1):
        for j, flat in enumerate(line):
            data[flat] = tensor.data[line[(t * j + c) % p]]
    return replace(tensor, data=tuple(data))


@pytest.fixture(scope="session")
def reference_label_order(quintic_roots_14):
    return match_root_order(quintic_roots_14, QUINTIC_ROOT_STRINGS)


PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load_perfbench(name: str) -> ModuleType:
    """``perfbench/<name>.py``, executed from its source once per session;
    nothing is written next to it.  The module is registered under a
    private name, since dataclasses look their module up there."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        module = ModuleType(key)
        sys.modules[key] = module
        path = PERFBENCH / f"{name}.py"
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return sys.modules[key]


def rewrite_pins(path: Path, entries: dict) -> None:
    """Write ``entries`` as the pin file ``path``, one entry per line, and
    print each key whose entry changed, appeared or went."""
    old = json.loads(path.read_text())
    for name in sorted(old.keys() | entries.keys()):
        if old.get(name) != entries.get(name):
            print(f"changed: {name}")
    lines = [f"{json.dumps(name)}: {json.dumps(value)}"
             for name, value in entries.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
