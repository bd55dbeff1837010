"""Each library input check raises its own error type and message."""

import pytest

from mpmath import mpc

from radicalroots import (InputSyntaxError, IntPolynomial, Permutation,
                          build_theta0, closure, composition_series, emit,
                          find_roots, label_roots, orbit_sum_invariant,
                          parse_expr_json, parse_polynomial, solve, verify)
from radicalroots.pipeline import as_labeling
from radicalroots.precision import principal_root
from radicalroots.radical import IntegerLiteral
from radicalroots.resolvent import ResolventTensor
from radicalroots.rootfinder import aberth_stage, polish_roots

CHECKS = [
    ("json-not-a-dict", lambda: parse_expr_json("[1]"),
     ValueError, "bad expression node: [1]"),
    ("json-nested-not-a-dict", lambda: parse_expr_json('{"sum": [5]}'),
     ValueError, "bad expression node: 5"),
    ("json-empty-node", lambda: parse_expr_json("{}"),
     ValueError, "bad expression node: {}"),
    ("json-empty-product", lambda: parse_expr_json('{"product": []}'),
     ValueError, "bad expression node: {'product': []}"),
    ("json-scale-not-1/p",
     lambda: parse_expr_json('{"scale": "2/3", "sum": [{"int": "1"}]}'),
     ValueError, "scale must be 1/p, got '2/3'"),
    ("json-scale-1/0",
     lambda: parse_expr_json('{"scale": "1/0", "sum": [{"int": "1"}]}'),
     ValueError, "scale must be 1/p, got '1/0'"),
    ("json-scale-1/-2",
     lambda: parse_expr_json('{"scale": "1/-2", "sum": [{"int": "1"}]}'),
     ValueError, "scale must be 1/p, got '1/-2'"),
    ("json-root-branch-above-degree",
     lambda: parse_expr_json(
         '{"root": {"p": 2, "branch": 5, "radicand": {"int": "2"}}}'),
     ValueError, "bad expression node: {'root': {'p': 2, 'branch': 5, "
     "'radicand': {'int': '2'}}}"),
    ("json-zeta-power-negative",
     lambda: parse_expr_json('{"zeta": {"p": 3, "k": -1}}'),
     ValueError, "bad expression node: {'zeta': {'p': 3, 'k': -1}}"),
    ("json-zeta-order-not-an-integer",
     lambda: parse_expr_json('{"zeta": {"p": 2.5, "k": 0}}'),
     ValueError, "bad expression node: {'zeta': {'p': 2.5, 'k': 0}}"),
    ("json-root-degree-not-prime",
     lambda: parse_expr_json(
         '{"root": {"p": 4, "branch": 1, "radicand": {"int": "2"}}}'),
     ValueError, "bad expression node: {'root': {'p': 4, 'branch': 1, "
     "'radicand': {'int': '2'}}}"),
    ("json-zeta-order-above-the-group-order-cap",
     lambda: parse_expr_json('{"zeta": {"p": 1000000000000000003, "k": 0}}'),
     ValueError, "bad expression node: {'zeta': {'p': 1000000000000000003, "
     "'k': 0}}"),
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
    ("boolean-coefficient", lambda: solve([-2, 0, True], "(1,2)"),
     InputSyntaxError, "polynomial coefficient 2 must be an integer, "
     "got True"),
    ("boolean-digits", lambda: solve([-2, 0, 1], "(1,2)", digits=True),
     InputSyntaxError, "digits must be an integer, got True"),
    ("boolean-labeling", lambda: solve([-2, 0, 1], "(1,2)",
                                       labeling=[True, 2]),
     InputSyntaxError, "a root order entry must be an integer, got True"),
    ("polynomial-constant", lambda: IntPolynomial((5,)),
     InputSyntaxError, "polynomial degree must be >= 1"),
    ("polynomial-trailing-sign", lambda: parse_polynomial("x+"),
     InputSyntaxError, "cannot tokenize polynomial: 'x+'"),
    ("principal-root-degree", lambda: principal_root(mpc(2), 0),
     ValueError, "root degree must be >= 1"),
    ("polish-digits", lambda: polish_roots(
        parse_polynomial("x^2-2"),
        aberth_stage(parse_polynomial("x^2-2")), 0),
     ValueError, "digits must be >= 1"),
    ("tensor-length", lambda: ResolventTensor((2, 3), (mpc(1),) * 5),
     ValueError, "tensor data length does not match radices"),
    ("theta0-root-count", lambda: build_theta0(
        find_roots(parse_polynomial("x^2-2"), 10),
        composition_series(closure([Permutation((2, 3, 1))]))),
     ValueError, "root count does not match the group degree"),
    ("labeling-root-count", lambda: label_roots(
        closure([Permutation((2, 3, 1))]),
        find_roots(parse_polynomial("x^2-2"), 10)),
     ValueError, "root count does not match the group degree"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
