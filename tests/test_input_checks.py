"""Each library input check raises its own error type and message."""

import pytest

from radicalroots import (InputSyntaxError, IntPolynomial, Permutation,
                          closure, emit, find_roots, orbit_sum_invariant,
                          parse_expr_json, parse_polynomial, verify)
from radicalroots.pipeline import as_labeling
from radicalroots.radical import IntegerLiteral

CHECKS = [
    ("json-not-a-dict", lambda: parse_expr_json("[1]"),
     ValueError, "bad expression node: [1]"),
    ("json-nested-not-a-dict", lambda: parse_expr_json('{"sum": [5]}'),
     ValueError, "bad expression node: 5"),
    ("json-empty-node", lambda: parse_expr_json("{}"),
     ValueError, "bad expression node: {}"),
    ("json-scale-not-1/p",
     lambda: parse_expr_json('{"scale": "2/3", "sum": [{"int": "1"}]}'),
     ValueError, "scale must be 1/p, got '2/3'"),
    ("json-unknown-keys", lambda: parse_expr_json('{"foo": 1, "bar": 2}'),
     ValueError, "unknown expression node keys: ['bar', 'foo']"),
    ("emit-svg", lambda: emit(IntegerLiteral(1), "svg"),
     ValueError, "unknown format 'svg'"),
    ("verify-count",
     lambda: verify((IntegerLiteral(1),),
                    find_roots(parse_polynomial("x^2-2"), 10)),
     ValueError, "one expression per root is required"),
    ("closure-empty", lambda: closure([]),
     InputSyntaxError, "at least one generator is required"),
    ("closure-mixed-degrees",
     lambda: closure([Permutation((2, 1)), Permutation((2, 3, 1))]),
     InputSyntaxError, "generators have mismatched degrees"),
    ("orbit-exponent-length",
     lambda: orbit_sum_invariant(closure([Permutation((2, 1))]), (1,)),
     InputSyntaxError, "exponent vector length must equal the degree"),
    ("permutation-repeats", lambda: Permutation((1, 1)),
     InputSyntaxError, "not a permutation of 1..2: (1, 1)"),
    ("polynomial-zero-leading", lambda: IntPolynomial((1, 0)),
     InputSyntaxError, "leading coefficient must be nonzero"),
    ("labeling-length", lambda: as_labeling([2, 1], 3),
     InputSyntaxError, "labeling must list 3 root positions, got 2"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
