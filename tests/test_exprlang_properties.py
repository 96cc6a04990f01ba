"""Property tests of the compiled expression closures over generated trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcheb.exprlang import (
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    ExprEvalError,
    Neg,
    Num,
    Var,
    as_function,
    evaluate,
    parse,
    to_str,
)

from test_exprlang import _assert_bit_equal, _reference

# every node kind, every function and constant, ^ with integer and
# non-integer exponents, and numbers that round-trip through repr
_numbers = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([0.5, 1.5, 2.5, 0.1, 1e-3]),
    st.floats(0.0, 10.0),
)
_leaves = st.one_of(
    _numbers.map(Num),
    st.sampled_from([Var("t"), Var("s")] + [Const(c) for c in sorted(CONSTANTS)]),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), kids),
    ),
    max_leaves=12,
)

# a grid of (t, s) pairs with zeros and negatives, so that division by zero
# and domain errors occur, and one away from them
_T = np.array([-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 2.5])[:, np.newaxis]
_S = np.array([-1.5, 0.0, 0.5, 2.0])[np.newaxis, :]
_T_POS = np.linspace(0.1, 2.0, 5)[:, np.newaxis]
_S_POS = np.array([0.2, 0.9, 1.7])[np.newaxis, :]


def _broadcast_views(t, s):
    """t and s as the zero-stride views of one full shape that
    expansion.sample passes to a kernel."""
    shape = np.broadcast_shapes(t.shape, s.shape)
    return np.broadcast_to(t, shape), np.broadcast_to(s, shape)


class TestCompiledProperties:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_array_evaluation_matches_interpreter(self, tree):
        f = as_function(tree)
        for t, s in ((_T, _S), (_T_POS, _S_POS), _broadcast_views(_T, _S),
                     _broadcast_views(_T_POS, _S_POS)):
            try:
                want = _reference(tree, t, s)
            except ExprEvalError as exc:
                with pytest.raises(ExprEvalError) as info:
                    f(t, s)
                assert str(info.value) == str(exc)
            else:
                _assert_bit_equal(f(t, s), want)

    @settings(max_examples=100, deadline=None)
    @given(_trees, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_float_evaluation_matches_interpreter(self, tree, t, s):
        f = as_function(tree)
        try:
            want = evaluate(tree, t, s)
        except ExprEvalError as exc:
            with pytest.raises(ExprEvalError) as info:
                f(t, s)
            assert str(info.value) == str(exc)
        else:
            got = f(t, s)
            assert type(got) is float
            _assert_bit_equal(np.array(got), np.array(want, dtype=float))

    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_print_parse_round_trip(self, tree):
        printed = to_str(tree)
        assert parse(printed) == tree
        assert to_str(parse(printed)) == printed
