import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcheb import exprlang
from bpcheb.basis import BasisConfig, Partition
from bpcheb.exprlang import BinOp, Call, Neg, Var, evaluate, parse
from bpcheb.problem import OutputSpec, Problem, ProblemError, dumps, load, loads
from bpcheb.solver import SystemSpec, assemble, residual, solve

from test_exprlang_properties import _trees

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
GOLDENS_DIR = os.path.join(os.path.dirname(__file__), "goldens")

MINIMAL = """
[system]
n = 1
r = 1
t0 = 0
tf = 1
x0 = [0]
B = [["1"]]
u = ["1"]

[solve]
K = 2
M = 3
"""


class TestLoads:
    def test_minimal(self):
        p = loads(MINIMAL)
        assert (p.n, p.r, p.K, p.M) == (1, 1, 2, 3)
        assert p.A is None and p.N is None
        assert p.breakpoints is None
        assert p.output == OutputSpec()

    def test_polynomial_benchmark_file(self):
        p = load(os.path.join(PROBLEMS_DIR, "polynomial_ivp.prob"))
        assert (p.n, p.r, p.K, p.M) == (2, 1, 3, 4)
        assert p.A[0][0] == parse("t^2+1")
        assert p.A[0][1] == parse("-t")
        assert p.N[0][0] == parse("s")
        assert p.B[1][0] == parse("2*t^2-t^3")
        assert p.output.exact == (parse("t^2"), parse("t^3"))
        spec = p.system_spec()
        np.testing.assert_allclose(spec.A(0.5), [[1.25, -0.5], [0.0, 1.0]])
        np.testing.assert_allclose(spec.N(0.5, 0.25), [[0.25, 3.0], [0.75, 0.0]])
        cfg = p.basis_config()
        assert cfg.K == 3 and cfg.M == 4

    def test_syntax_error_names_the_cell(self):
        bad = MINIMAL.replace('B = [["1"]]', 'B = [["3t"]]')
        with pytest.raises(ProblemError, match=r"\[system\].B\[0\]\[0\]"):
            loads(bad)

    def test_overflowing_number_names_the_cell(self):
        # as Num(inf) it would load, but dumps would write "inf", which loads rejects
        with pytest.raises(ProblemError, match=r"\[output\].exact\[0\]: number 1e999 overflows"):
            loads(MINIMAL + '\n[output]\nexact = ["t*1e999"]\n')

    def test_s_only_allowed_in_kernel(self):
        bad = MINIMAL.replace('u = ["1"]', 'u = ["s"]')
        with pytest.raises(ProblemError, match="inner variable s"):
            loads(bad)
        withn = MINIMAL.replace('B = [["1"]]', 'B = [["1"]]\nN = [["s*t"]]')
        assert loads(withn).N is not None

    def test_explicit_breakpoints_accepted(self):
        text = MINIMAL + "\n"
        text = text.replace("K = 2", "K = 2\nbreakpoints = [0, 0.2, 1.0]")
        p = loads(text)
        assert p.breakpoints == (0.0, 0.2, 1.0)
        assert p.basis_config().partition.width_array.tolist() == [0.2, 0.8]

    def test_breakpoint_count_must_match_k(self):
        text = MINIMAL.replace("K = 2", "K = 2\nbreakpoints = [0, 1.0]")
        with pytest.raises(ProblemError, match="K\\+1"):
            loads(text)

    def test_breakpoints_must_span_interval(self):
        text = MINIMAL.replace("K = 2", "K = 2\nbreakpoints = [0, 0.5, 0.9]")
        with pytest.raises(ProblemError, match="span"):
            loads(text)

    @pytest.mark.parametrize("breakpoints", ["[-1e-13, 0.5, 1]", "[0, 0.5, 1.0000000000001]"])
    def test_breakpoints_must_start_and_end_exactly_at_t0_and_tf(self, breakpoints):
        # a basis reaching 1e-13 past [t0, tf] is one that assemble rejects
        text = MINIMAL.replace("K = 2", f"K = 2\nbreakpoints = {breakpoints}")
        with pytest.raises(ProblemError, match=r"\[solve\]\.breakpoints: must span"):
            loads(text)

    def test_missing_section(self):
        with pytest.raises(ProblemError, match=r"missing \[solve\]"):
            loads("[system]\nn = 1\nr = 1\nt0 = 0\ntf = 1\nx0 = [0]\n")

    def test_missing_required_key(self):
        with pytest.raises(ProblemError, match=r"\[system\].n is required"):
            loads("[system]\nr = 1\n\n[solve]\nK = 1\nM = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ProblemError, match="unknown keys"):
            loads(MINIMAL + "\nwhatever = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ProblemError, match="unknown section"):
            loads("[systems]\nn = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ProblemError, match="duplicate key"):
            loads(MINIMAL + "\nM = 4\n")

    def test_grid_shape_must_match_dimensions(self):
        bad = MINIMAL.replace('B = [["1"]]', 'B = [["1"], ["2"]]')
        with pytest.raises(ProblemError, match="1x1 grid"):
            loads(bad)

    @pytest.mark.parametrize("old,new,key", [
        ("x0 = [0]", "x0 = [NaN]", r"\[system\].x0"),
        ("x0 = [0]", "x0 = [Infinity]", r"\[system\].x0"),
        ("tf = 1", "tf = Infinity", r"\[system\].tf"),
        ("tf = 1", "tf = inf", r"\[system\].tf"),
        ("t0 = 0", "t0 = nan", r"\[system\].t0"),
        ("M = 3", "M = 3\nbreakpoints = [0, NaN, 1]", r"\[solve\].breakpoints"),
        ("M = 3", "M = 3\n[output]\npoints = [0.5, -Infinity]", r"\[output\].points"),
        # integers too large for a float
        pytest.param("x0 = [0]", f"x0 = [{10**400}]", r"\[system\].x0", id="x0-10**400"),
        pytest.param("M = 3", f"M = 3\nbreakpoints = [0, {10**400}, 1]",
                     r"\[solve\].breakpoints", id="breakpoints-10**400"),
        pytest.param("M = 3", f"M = 3\n[output]\npoints = [0.5, -{10**400}]",
                     r"\[output\].points", id="points-minus-10**400"),
    ])
    def test_rejects_non_finite_numbers(self, old, new, key):
        with pytest.raises(ProblemError, match=f"{key}: .*finite"):
            loads(MINIMAL.replace(old, new))

    def test_rejects_an_integer_too_long_to_read(self):
        # json.loads refuses integers longer than Python's digit limit with a ValueError
        with pytest.raises(ProblemError, match=r"^\[system\].x0: "):
            loads(MINIMAL.replace("x0 = [0]", f"x0 = [1{'0' * 5000}]"))

    def test_x0_length(self):
        bad = MINIMAL.replace("x0 = [0]", "x0 = [0, 1]")
        with pytest.raises(ProblemError, match="x0"):
            loads(bad)

    def test_output_validation(self):
        with pytest.raises(ProblemError, match="points"):
            loads(MINIMAL + "\n[output]\npoints = [0.5]\neval_points = 7\n")
        with pytest.raises(ProblemError, match="format"):
            loads(MINIMAL + "\n[output]\nformat = json\n")
        with pytest.raises(ProblemError, match="lie in"):
            loads(MINIMAL + "\n[output]\npoints = [2.0]\n")
        with pytest.raises(ProblemError, match=r"\[output\].points: need at least one point"):
            loads(MINIMAL + "\n[output]\npoints = []\n")

    @pytest.mark.parametrize("section,key", [
        ("system", "A"), ("system", "N"), ("system", "B"), ("system", "u"),
        ("output", "points"), ("output", "eval_points"), ("output", "exact"), ("output", "format"),
    ])
    def test_empty_optional_value_is_an_error(self, section, key):
        # "N =" used to load as no kernel, and "points =" as the default points
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ="))
        if section == "system":
            text = text.replace("[system]", f"[system]\n{key} =")
        else:
            text += f"\n[output]\n{key} =\n"
        with pytest.raises(ProblemError, match=rf"^\[{section}\]\.{key}: "):
            loads(text)

    @pytest.mark.parametrize("old,new,key", [
        ("x0 = [0]", "x0 = [true]", r"\[system\].x0"),
        ("x0 = [0]", "x0 = [false]", r"\[system\].x0"),
        ("M = 3", "M = 3\nbreakpoints = [0, true, 1]", r"\[solve\].breakpoints"),
        ("M = 3", "M = 3\n[output]\npoints = [true]", r"\[output\].points"),
    ], ids=["x0-true", "x0-false", "breakpoints", "points"])
    def test_booleans_are_not_numbers(self, old, new, key):
        with pytest.raises(ProblemError, match=f"^{key}: expected a list of numbers$"):
            loads(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old,new,match", [
        ("K = 2", "K = 2\n[system]", r"^<string>:\d+: duplicate section \[system\]$"),
        ("n = 1", "n 1", r"^<string>:3: expected 'key = value'$"),
        ("x0 = [0]", "x0 = [0,", r"^\[system\].x0: malformed list"),
        ("n = 1", "n = 1.5", r"^\[system\].n: expected an integer, got '1.5'$"),
        ("t0 = 0", "t0 = zero", r"^\[system\].t0: expected a number, got 'zero'$"),
        ('u = ["1"]', "u = [1]", r"^\[system\].u\[0\]: expressions must be quoted strings"),
        ('u = ["1"]', 'u = ["1", "2"]', r"^\[system\].u: expected a list of 1 expressions$"),
        ("x0 = [0]", 'x0 = ["0"]', r"^\[system\].x0: expected a list of numbers$"),
        ("n = 1", "n = 0", r"^\[system\]: n and r must be positive"),
        ("r = 1", "r = 0", r"^\[system\]: n and r must be positive"),
        ("tf = 1", "tf = 0", r"^\[system\]: need tf > t0"),
        ("x0 = [0]", "x0 = [0]\nwhatever = 3", r"^\[system\]: unknown keys \['whatever'\]$"),
        ("M = 3", "M = 3\n[output]\nwhatever = 3", r"^\[output\]: unknown keys \['whatever'\]$"),
        ("K = 2", "K = 0", r"^\[solve\]: K and M must be positive"),
        ("M = 3", "M = 0", r"^\[solve\]: K and M must be positive"),
        ("M = 3", "M = 3\nbreakpoints = [0, 0.5, 0.5]",
         r"^\[solve\].breakpoints: must be strictly increasing$"),
        ("M = 3", "M = 3\n[output]\neval_points = 1",
         r"^\[output\].eval_points: need at least 2 points$"),
    ], ids=["duplicate-section", "no-equals", "malformed-list", "n-not-integer", "t0-not-number",
            "unquoted-expression", "expression-count", "not-numbers", "n-zero", "r-zero",
            "tf-not-after-t0", "system-unknown-key", "output-unknown-key", "K-zero", "M-zero",
            "breakpoints-not-increasing", "eval-points-one"])
    def test_loader_errors_name_the_section_and_key(self, old, new, match):
        with pytest.raises(ProblemError, match=match):
            loads(MINIMAL.replace(old, new))

    def test_key_outside_section(self):
        with pytest.raises(ProblemError, match="outside"):
            loads("n = 1\n")

    def test_file_not_found(self):
        with pytest.raises(ProblemError, match="cannot read"):
            load("/nonexistent/path.prob")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        shipped = os.path.join(PROBLEMS_DIR, "polynomial_ivp.prob")
        path = tmp_path / "bom.prob"
        with open(shipped, "rb") as handle:
            path.write_bytes(b"\xef\xbb\xbf" + handle.read())
        assert load(str(path)) == load(shipped)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.prob"
        path.write_bytes(("# caf\u00e9\n" + MINIMAL).encode("latin-1"))
        with pytest.raises(ProblemError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec"):
            load(str(path))


def _without_s(e):
    """e with every s replaced by t: the data other than N are functions of t alone."""
    if e == Var("s"):
        return Var("t")
    if isinstance(e, Neg):
        return Neg(_without_s(e.operand))
    if isinstance(e, BinOp):
        return BinOp(e.op, _without_s(e.left), _without_s(e.right))
    if isinstance(e, Call):
        return Call(e.func, _without_s(e.arg))
    return e


_t_trees = _trees.map(_without_s)


@st.composite
def _problems(draw):
    """Valid problems: every optional datum present or not, uniform or explicit
    breakpoints, output points or a point count, both formats."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def optional(trees, *shape):  # None, or a tuple (of tuples) of trees of that shape
        for size in reversed(shape):
            trees = st.tuples(*[trees] * size)
        return draw(st.none() | trees)

    t0 = draw(st.floats(-1e3, 1e3))
    tf = t0 + draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        breakpoints, K = None, draw(st.integers(1, 64))
    else:
        inner = draw(st.lists(st.floats(t0, tf, exclude_min=True, exclude_max=True),
                              unique=True, max_size=6))
        breakpoints = (t0, *sorted(inner), tf)
        K = len(breakpoints) - 1
    if draw(st.booleans()):
        points, count = tuple(draw(st.lists(st.floats(t0, tf), min_size=1, max_size=6))), None
    else:
        points, count = None, draw(st.integers(2, 1000))
    return Problem(
        n=n, r=r, t0=t0, tf=tf,
        x0=tuple(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n))),
        A=optional(_t_trees, n, n), N=optional(_trees, n, n), B=optional(_t_trees, n, r),
        u=optional(_t_trees, r), K=K, M=draw(st.integers(1, 20)), breakpoints=breakpoints,
        output=OutputSpec(points=points, eval_points=count, exact=optional(_t_trees, n),
                          fmt=draw(st.sampled_from(["csv", "table"]))),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fname", ["polynomial_ivp.prob", "exp_decay_ivp.prob"])
    def test_shipped_problems(self, fname):
        p = load(os.path.join(PROBLEMS_DIR, fname))
        assert loads(dumps(p)) == p

    @pytest.mark.parametrize("fname", ["polynomial_ivp.prob", "exp_decay_ivp.prob"])
    def test_dumps_matches_golden_byte_for_byte(self, fname):
        stem = os.path.splitext(fname)[0]
        with open(os.path.join(GOLDENS_DIR, f"{stem}.dumps.prob"), "rb") as golden:
            assert dumps(load(os.path.join(PROBLEMS_DIR, fname))).encode() == golden.read()

    @settings(max_examples=200, deadline=None)
    @given(_problems())
    def test_generated_problems(self, p):
        assert loads(dumps(p)) == p

    def test_numpy_scalars(self):
        """t0, tf, x0 and breakpoints held as np.float64 dump as plain numbers."""
        p = loads(MINIMAL.replace("K = 2", "K = 2\nbreakpoints = [0, 0.25, 1.0]"))
        f64 = np.float64
        q = replace(p, t0=f64(p.t0), tf=f64(p.tf), x0=tuple(map(f64, p.x0)),
                    breakpoints=tuple(map(f64, p.breakpoints)))
        text = dumps(q)
        assert "np." not in text
        assert text == dumps(p)
        assert loads(text) == p

    def test_non_uniform_with_eval_points(self):
        text = MINIMAL.replace("K = 2", "K = 2\nbreakpoints = [0, 0.25, 1.0]")
        text += "\n[output]\neval_points = 7\nformat = table\n"
        p = loads(text)
        assert loads(dumps(p)) == p
        assert len(p.output.resolve_points(p.t0, p.tf)) == 7


class TestOverrides:
    def test_m_override(self):
        p = loads(MINIMAL).with_overrides(M=6)
        assert p.M == 6 and p.K == 2

    def test_k_override_uniform(self):
        p = loads(MINIMAL).with_overrides(K=5)
        assert p.K == 5
        assert p.basis_config().K == 5

    def test_k_override_conflicts_with_explicit_breakpoints(self):
        text = MINIMAL.replace("K = 2", "K = 2\nbreakpoints = [0, 0.25, 1.0]")
        with pytest.raises(ProblemError, match="breakpoints"):
            loads(text).with_overrides(K=3)


def interpreter_spec(p) -> SystemSpec:
    """The system with plain callables that walk the expression trees per point."""
    def grid_fn(grid):
        return lambda *ts: np.array([[evaluate(e, *ts) for e in row] for row in grid])

    def vec_fn(entries):
        return lambda t: np.array([evaluate(e, t) for e in entries])

    return SystemSpec(
        n=p.n, r=p.r, t0=p.t0, tf=p.tf, x0=np.array(p.x0),
        A=grid_fn(p.A) if p.A is not None else None,
        B=grid_fn(p.B) if p.B is not None else None,
        N=grid_fn(p.N) if p.N is not None else None,
        u=vec_fn(p.u) if p.u is not None else None,
    )


class TestSystemSpec:
    @pytest.mark.parametrize("fname", ["polynomial_ivp.prob", "exp_decay_ivp.prob"])
    @pytest.mark.parametrize("K, M, jitter", [(3, 4, False), (4, 5, False), (8, 12, False),
                                              (6, 7, True)])
    def test_grid_sampling_is_bit_identical_to_interpreter(self, fname, K, M, jitter):
        p = load(os.path.join(PROBLEMS_DIR, fname)).with_overrides(K=K, M=M)
        cfg = p.basis_config()
        if jitter:
            bp = np.linspace(0.0, 1.0, K + 1)
            bp[1:-1] += np.random.default_rng(K).uniform(-0.3, 0.3, K - 1) / K
            cfg = BasisConfig(Partition(tuple(bp)), M)
        spec, ref = p.system_spec(), interpreter_spec(p)
        asm, want = assemble(spec, cfg), assemble(ref, cfg)
        for name in ("phi_blocks", "b_blocks", "Q"):
            assert np.array_equal(getattr(asm, name), getattr(want, name)), name
        assert np.array_equal(solve(asm, spec.u).xhat, solve(want, ref.u).xhat)

    def test_every_datum_is_sampled_on_the_grid(self, monkeypatch):
        # the only scalar evaluations are the two probes per sample call and
        # entry; N's one chunk holds all 8 outer blocks: 2 * (4 A + 2 B + 1 u + 4 N) = 22
        calls = []
        real = exprlang.evaluate
        monkeypatch.setattr(exprlang, "evaluate", lambda *args: calls.append(args) or real(*args))
        p = load(os.path.join(PROBLEMS_DIR, "exp_decay_ivp.prob")).with_overrides(K=8, M=12)
        spec = p.system_spec()
        solve(assemble(spec, p.basis_config()), spec.u)
        assert len(calls) == 22

    @pytest.mark.parametrize("fname", ["polynomial_ivp.prob", "exp_decay_ivp.prob"])
    def test_residual_matches_interpreter(self, fname):
        p = load(os.path.join(PROBLEMS_DIR, fname))
        spec, ref = p.system_spec(), interpreter_spec(p)
        sol = solve(assemble(ref, p.basis_config()), ref.u)
        ts = np.linspace(p.t0, p.tf, 7)
        assert residual(spec, sol, ts, quad_order=12) == residual(ref, sol, ts, quad_order=12)

    def test_values_at_a_point_match_interpreter(self):
        p = load(os.path.join(PROBLEMS_DIR, "exp_decay_ivp.prob"))
        spec, ref = p.system_spec(), interpreter_spec(p)
        for name in ("A", "B", "u"):
            got = getattr(spec, name)(0.3)
            assert got.shape == getattr(ref, name)(0.3).shape
            assert np.array_equal(got, getattr(ref, name)(0.3))
        assert np.array_equal(spec.N(0.3, 0.7), ref.N(0.3, 0.7))

    def test_grid_call_shape(self):
        spec = load(os.path.join(PROBLEMS_DIR, "exp_decay_ivp.prob")).system_spec()
        t, s = np.linspace(0, 1, 3)[:, np.newaxis, np.newaxis], np.full((2, 4), 0.5)
        assert spec.A(s).shape == (2, 2, 2, 4)
        assert spec.u(s).shape == (1, 2, 4)
        assert spec.N(t, s).shape == (2, 2, 3, 2, 4)
