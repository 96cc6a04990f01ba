import math
import os
import re

import numpy as np
import pytest

from bpcheb import expansion
from bpcheb.exprlang import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    as_function,
    evaluate,
    parse,
    to_str,
    variables,
)
from bpcheb.problem import load

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


class TestParse:
    def test_simple_sum_of_power(self):
        assert parse("t^2+1") == BinOp("+", BinOp("^", Var("t"), Num(2.0)), Num(1.0))

    def test_unary_minus_wraps_the_power(self):
        # the whole square is negated, matching the mathematical reading
        assert parse("-(t-1)^2") == Neg(
            BinOp("^", BinOp("-", Var("t"), Num(1.0)), Num(2.0))
        )
        assert parse("-t^2") == Neg(BinOp("^", Var("t"), Num(2.0)))

    def test_parenthesized_negative_base(self):
        assert parse("(-2)^2") == BinOp("^", Neg(Num(2.0)), Num(2.0))

    def test_function_call_and_constant(self):
        assert parse("exp(-t)") == Call("exp", Neg(Var("t")))
        assert parse("2*pi") == BinOp("*", Num(2.0), Const("pi"))

    def test_whitespace_insensitive(self):
        assert parse(" 1 +  2*t ") == parse("1+2*t")

    def test_scientific_notation(self):
        assert parse("1e-3") == Num(0.001)
        assert parse("2.5E2") == Num(250.0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as excinfo:
            parse("1+*2")
        assert excinfo.value.offset == 2
        assert excinfo.value.expected

    def test_overflowing_number_is_a_syntax_error(self):
        # as Num(inf) it would print as "inf", which does not parse back
        with pytest.raises(ExprSyntaxError, match="number 1e999 overflows") as excinfo:
            parse("t + 1e999")
        assert excinfo.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'x'"):
            parse("x+1")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            parse("tan(t)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("3t")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing"):
            parse("1+2)")

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1+2")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("")


class TestEvaluate:
    @pytest.mark.parametrize(
        "src, t, s, expected",
        [
            ("t^2", 3.0, 0.0, 9.0),
            ("s", 7.0, 2.0, 2.0),
            ("2+3*4", 0.0, 0.0, 14.0),
            ("2*3^2", 0.0, 0.0, 18.0),
            ("(-2)^2", 0.0, 0.0, 4.0),
            ("2^3^2", 0.0, 0.0, 512.0),
            ("-2^2", 0.0, 0.0, -4.0),
            ("2^-2", 0.0, 0.0, 0.25),
            ("pi", 0.0, 0.0, math.pi),
            ("e", 0.0, 0.0, math.e),
            ("6/3/2", 0.0, 0.0, 1.0),
            ("1-2-3", 0.0, 0.0, -4.0),
            ("abs(-3)", 0.0, 0.0, 3.0),
            ("ln(e)", 0.0, 0.0, 1.0),
        ],
    )
    def test_values(self, src, t, s, expected):
        assert evaluate(parse(src), t, s) == pytest.approx(expected, abs=1e-14)

    def test_exp_reference_value(self):
        assert evaluate(parse("exp(-t)"), 1.0) == pytest.approx(0.36787944117144, abs=1e-13)

    # np.float64 is a float: its overflow to inf warns in numpy, which fails the suite
    @pytest.mark.parametrize("t", [2.5, np.float64(2.5)], ids=["float", "float64"])
    def test_overflow_to_inf_is_silent(self, t):
        tree = BinOp("/", Var("t"), Num(2.225073858507203e-309))
        assert evaluate(tree, t) == math.inf
        assert as_function(tree)(t) == math.inf
        # the array walk fails at s = 0, so evaluate runs per element, on numpy scalars
        with pytest.raises(ExprEvalError, match="division by zero"):
            as_function(parse("t/s"))(np.array([t, 1.0]), np.array([1e-309, 0.0]))

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError, match="division by zero"):
            evaluate(parse("1/t"), 0.0)

    def test_log_domain_error_reports_values(self):
        with pytest.raises(ExprEvalError, match="t=-1"):
            evaluate(parse("ln(t)"), -1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("sqrt(t)"), -4.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("t^0.5"), -2.0)

    @pytest.mark.parametrize(
        "src, fn, arg, t, ts",
        [
            ("ln(t)", math.log, -0.5, -0.5, [1.0, -0.5, -1.0]),
            ("sqrt(t-2)", math.sqrt, -1.0, 1.0, [3.0, 1.0, 0.0]),
            ("exp(1000*t)", math.exp, 1000.0, 1.0, [0.5, 1.0, 2.0]),
        ],
    )
    def test_call_errors_name_the_math_error_the_call_and_the_point(self, src, fn, arg, t, ts):
        # the math module's own message ("math domain error", "math range error")
        # leads; as_function on arrays names the first failing element
        with pytest.raises((ValueError, OverflowError)) as reason:
            fn(arg)
        name = src.split("(")[0]
        message = "^" + re.escape(f"{reason.value} in {name}({arg}) at t={t}, s=0.0") + "$"
        with pytest.raises(ExprEvalError, match=message):
            evaluate(parse(src), t)
        with pytest.raises(ExprEvalError, match=message):
            as_function(parse(src))(np.array(ts))

    def test_as_function(self):
        f = as_function(parse("t*s"))
        assert f(3.0, 4.0) == 12.0


class TestVariables:
    def test_collects_names(self):
        assert variables(parse("t*s+exp(s)")) == {"t", "s"}
        assert variables(parse("1+pi")) == set()


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(0, 4)
        if choice == 0:
            return Num(round(float(rng.uniform(0, 10)), 3))
        if choice == 1:
            return Var("t")
        if choice == 2:
            return Var("s")
        return Const(("pi", "e")[int(rng.integers(0, 2))])
    choice = rng.integers(0, 7)
    if choice < 4:
        op = "+-*/"[int(choice)]
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 4:
        return Neg(_random_expr(rng, depth - 1))
    if choice == 5:
        return BinOp("^", _random_expr(rng, depth - 1), Num(float(rng.integers(0, 4))))
    fn = ("exp", "sin", "cos", "abs")[int(rng.integers(0, 4))]
    return Call(fn, _random_expr(rng, depth - 1))


class TestPrinting:
    def test_print_parse_round_trip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            tree = _random_expr(rng, 4)
            printed = to_str(tree)
            assert parse(printed) == tree
            assert to_str(parse(printed)) == printed

    @pytest.mark.parametrize(
        "src",
        ["t^2+1", "-(t-1)^2", "3*exp(-1)-5-3*t", "2^3^2", "exp(-t)"],
    )
    def test_round_trip_preserves_value(self, src):
        tree = parse(src)
        again = parse(to_str(tree))
        for t in np.linspace(0, 1, 10):
            assert evaluate(again, t) == pytest.approx(evaluate(tree, t), abs=1e-14)


class TestNotANode:
    @pytest.mark.parametrize("call", [lambda x: evaluate(x, 0.5), to_str])
    @pytest.mark.parametrize("value", ["t", 3.0, None])
    def test_rejects_non_node(self, call, value):
        with pytest.raises(TypeError, match="^not an expression node: "):
            call(value)


class TestBenchmarkEntryStrings:
    """Every entry of the two benchmark systems parses and matches a
    hand-coded closure on a 50-point grid."""

    POLY_CASES = [
        ("t^2+1", lambda t, s: t**2 + 1),
        ("-t", lambda t, s: -t),
        ("0", lambda t, s: 0.0),
        ("1", lambda t, s: 1.0),
        ("s", lambda t, s: s),
        ("3", lambda t, s: 3.0),
        ("3*t^2", lambda t, s: 3 * t**2),
        ("-(t-1)^2", lambda t, s: -((t - 1) ** 2)),
        ("2*t^2-t^3", lambda t, s: 2 * t**2 - t**3),
        ("t^2", lambda t, s: t**2),
        ("t^3", lambda t, s: t**3),
    ]
    EXP_CASES = [
        ("t", lambda t, s: t),
        ("3*s^2", lambda t, s: 3 * s**2),
        ("exp(-t)-s^2", lambda t, s: math.exp(-t) - s**2),
        ("3*t^2+s*exp(-t)", lambda t, s: 3 * t**2 + s * math.exp(-t)),
        ("-t^2", lambda t, s: -(t**2)),
        ("3*exp(-1)-5-3*t", lambda t, s: 3 * math.exp(-1) - 5 - 3 * t),
        ("2*exp(-1)-7-t-3*t^2", lambda t, s: 2 * math.exp(-1) - 7 - t - 3 * t**2),
        ("exp(-t)", lambda t, s: math.exp(-t)),
        ("3*exp(-t)", lambda t, s: 3 * math.exp(-t)),
    ]

    @pytest.mark.parametrize("src, closure", POLY_CASES + EXP_CASES)
    def test_entry_matches_closure(self, src, closure):
        tree = parse(src)
        for t in np.linspace(0.0, 1.0, 50):
            s = 1.0 - t
            assert evaluate(tree, t, s) == pytest.approx(closure(t, s), abs=1e-14)


def _reference(tree, t, s):
    """evaluate at every element, in C order: the first failure raises."""
    tt, ss = np.broadcast_arrays(t, s)
    return np.array([evaluate(tree, a, b) for a, b in zip(tt.flat, ss.flat)],
                    dtype=float).reshape(tt.shape)


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))  # -0.0 vs 0.0


class TestCompiled:
    def test_array_calls_build_no_ufunc(self, monkeypatch):
        # every function and ^ reuse the element-wise ufunc built at import
        def refuse(*args):
            raise AssertionError("np.frompyfunc called")

        monkeypatch.setattr(np, "frompyfunc", refuse)
        t = np.linspace(0.1, 0.9, 5)
        for name in FUNCTIONS:
            got = as_function(parse(f"{name}(t)*t^t"))(t)
            assert got.tolist() == [FUNCTIONS[name](x) * math.pow(x, x) for x in t.tolist()]

    def test_broadcast_views_are_compacted(self, monkeypatch):
        # a kernel gets t and s broadcast to one full shape; exp(-t) must still
        # make one math call per distinct t
        args = []
        monkeypatch.setitem(FUNCTIONS, "exp", lambda x: args.append(x) or math.exp(x))
        tree = parse("3*t^2+s*exp(-t)")
        shape = (5, 3, 4)
        t = np.broadcast_to(np.linspace(0.0, 1.0, 5)[:, None, None], shape)
        s = np.broadcast_to(np.linspace(0.1, 0.9, 12).reshape(3, 4), shape)
        got = as_function(tree)(t, s)
        assert args == list(np.linspace(0.0, 1.0, 5) * -1.0)
        assert got.shape == shape and got.flags.writeable
        assert np.array_equal(got, _reference(tree, t, s))

    def test_result_has_the_broadcast_shape(self):
        t, s = np.linspace(0, 1, 3)[:, np.newaxis], np.linspace(0, 1, 4)
        assert as_function(parse("2*pi"))(t, s).shape == (3, 4)
        assert as_function(parse("exp(-t)"))(t).shape == (3, 1)
        assert as_function(parse("s^1.5"))(0.5, s).shape == (4,)

    def test_failure_names_the_first_failing_element(self):
        f = as_function(parse("1/(t-s)"))
        t = np.array([0.25, 0.5, 0.75])
        with pytest.raises(ExprEvalError, match=r"division by zero .* at t=0.5, s=0.5"):
            f(t, np.array([0.0, 0.5, 0.75]))
        with pytest.raises(ExprEvalError, match=r"domain error in ln\(-0.5\) at t=-0.5"):
            as_function(parse("ln(t)"))(np.array([1.0, -0.5, -1.0]))

    @pytest.mark.parametrize("src", ["exp(t)", "t^t", "exp(t)*exp(t)-exp(t)"])
    def test_overflow_matches_interpreter(self, src):
        tree, t = parse(src), np.array([1.0, 400.0, 800.0])
        try:
            want = _reference(tree, t, 0.0)
        except ExprEvalError as exc:
            with pytest.raises(ExprEvalError, match=re.escape(str(exc))):
                as_function(tree)(t)
        else:
            _assert_bit_equal(as_function(tree)(t), want)


def _stacked(grid, *args):
    """The per-entry stacking that a grid as_function replaces."""
    return np.array([[as_function(e)(*args) for e in row] for row in grid])


class TestGrid:
    GRID = tuple(tuple(map(parse, row)) for row in (("3*s^2", "exp(-t)-s^2"),
                                                    ("3*t^2+s*exp(-t)", "-t^2"),
                                                    ("2", "t/(1+s)")))

    def test_arrays_are_the_per_entry_stacking(self):
        t, s = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.1, 0.9, 4)
        got = as_function(self.GRID)(t, s)
        assert got.shape == (3, 2, 5, 4)
        _assert_bit_equal(got, _stacked(self.GRID, t, s))

    def test_broadcast_views_are_the_per_entry_stacking(self):
        shape = (5, 3, 4)
        t = np.broadcast_to(np.linspace(0.0, 1.0, 5)[:, None, None], shape)
        s = np.broadcast_to(np.linspace(0.1, 0.9, 12).reshape(3, 4), shape)
        got = as_function(self.GRID)(t, s)
        assert got.shape == (3, 2) + shape and got.flags.writeable
        _assert_bit_equal(got, _stacked(self.GRID, t, s))

    def test_floats_are_the_per_entry_stacking(self):
        for t, s in ((0.3, 0.7), (np.float64(0.25), np.float64(0.5)), (1.0, 0.0)):
            got = as_function(self.GRID)(t, s)
            assert type(got) is np.ndarray and got.dtype == float
            _assert_bit_equal(got, _stacked(self.GRID, t, s))

    def test_list_of_entries(self):
        entries = [parse("t^2"), parse("exp(-t)")]
        t = np.linspace(0.0, 1.0, 7)
        got = as_function(entries)(t)
        assert got.shape == (2, 7)
        _assert_bit_equal(got, np.array([as_function(e)(t) for e in entries]))
        _assert_bit_equal(as_function(entries)(0.5), np.array([0.25, math.exp(-0.5)]))

    def test_failure_names_the_first_failing_point_then_entry(self):
        # at t=0.25 only ln fails; at t=0.5 only the division does: the first point wins
        grid = ((parse("1/(t-0.5)"), parse("ln(t-0.3)")),)
        with pytest.raises(ExprEvalError, match=r"^math domain error in ln\(.*\) at t=0.25, s=0.0$"):
            as_function(grid)(np.array([0.25, 0.5]))
        # two entries fail at t=0.5 only: the first in C order is named
        grid = ((parse("t"), parse("1/(t-0.5)")), (parse("sqrt(0.4-t)"), parse("1")))
        with pytest.raises(ExprEvalError, match=r"^division by zero in .* at t=0.5, s=0.0$"):
            as_function(grid)(np.array([0.25, 0.5]))

    @pytest.mark.parametrize("fname", ["polynomial_ivp.prob", "exp_decay_ivp.prob"])
    def test_system_spec_data_are_the_per_entry_stacking(self, fname):
        p = load(os.path.join(PROBLEMS_DIR, fname)).with_overrides(K=3, M=4)
        spec = p.system_spec()
        grid = expansion.nodes(p.basis_config(), expansion.default_rule(p.basis_config()))
        ts = np.linspace(p.t0, p.tf, 5)
        lead = ts.shape + grid.shape
        t = np.broadcast_to(ts[:, None, None], lead)
        s = np.broadcast_to(grid, lead)
        for name, kernel in (("A", False), ("B", False), ("N", True)):
            f, data = getattr(spec, name), getattr(p, name)
            args = (t, s) if kernel else (grid,)
            _assert_bit_equal(f(*args), _stacked(data, *args))
            probe = tuple(a[(0,) * a.ndim] for a in args)
            _assert_bit_equal(f(*probe), _stacked(data, *probe))
        for args in ((grid,), (np.float64(0.3),)):
            _assert_bit_equal(spec.u(*args), np.array([as_function(e)(*args) for e in p.u]))
