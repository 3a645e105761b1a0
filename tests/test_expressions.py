import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfclab import expressions as ex


def test_variable_eval():
    e = ex.parse_coefficient("x[0]")
    assert ex.evaluate(e, x=np.array([2.0]), m1=np.array([0.0]), m2=0.0) == 2.0


def test_quadratic_deviation():
    e = ex.parse_coefficient("0.5*(x[0]-m1[0])^2")
    v = ex.evaluate(e, x=np.array([3.0]), m1=np.array([1.0]), m2=1.0)
    assert v == 2.0


def test_log_domain_error():
    e = ex.parse_coefficient("log(x[0])")
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(e, x=np.array([-1.0]), m1=np.array([0.0]), m2=0.0)


def test_division_by_zero():
    e = ex.parse_coefficient("1/x[0]")
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(e, x=np.array([0.0]), m1=None, m2=None)


def test_sqrt_domain():
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.parse_coefficient("sqrt(x[0])"), x=np.array([-4.0]))


@pytest.mark.parametrize("src, x, violation, loose", [
    ("1/x[0]", 0.0, "division by zero", np.inf),
    ("log(x[0])", 0.0, "log of non-positive value", -np.inf),
    ("sqrt(x[0])", -1.0, "sqrt of negative value", np.nan),
    ("x[0]^0.5", -1.0, "power produced a non-finite value", np.nan),
    ("1/0", None, "division by zero", np.inf),
    ("x[0] + m2", None, "x[...] is not available in this context", None),
])
def test_strict_domain_rules(src, x, violation, loose):
    """Whatever the domain violation, strict evaluation refuses the value that is
    not finite by naming the expression, and strict=False returns that value
    under IEEE rules. A missing x has no value in either mode."""
    e = ex.parse_coefficient(src)
    xs = None if x is None else np.array([x])
    message = violation if loose is None else f"{src} has a value that is not finite"
    with pytest.raises(ex.EvaluationError, match=re.escape(message)):
        ex.evaluate(e, xs, m2=1.0)
    if loose is None:
        with pytest.raises(ex.EvaluationError, match=re.escape(message)):
            ex.evaluate(e, xs, m2=1.0, strict=False)
    else:
        np.testing.assert_array_equal(ex.evaluate(e, xs, m2=1.0, strict=False), loose)


def test_finite_values_are_valid_whatever_the_operands():
    """exp(-1/x^2) passes through -1/0 = -inf at x = 0 to the finite value 0."""
    e = ex.parse_coefficient("exp(-1/x[0]^2)")
    x = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(ex.evaluate(e, x), [0.0, np.exp(-1.0)])


def test_precedence():
    assert ex.evaluate(ex.parse_coefficient("2^3^2")) == 512.0
    assert ex.evaluate(ex.parse_coefficient("-2^2")) == -4.0
    assert ex.evaluate(ex.parse_coefficient("2*3+4")) == 10.0
    assert ex.evaluate(ex.parse_coefficient("10 - 4 - 3")) == 3.0
    assert ex.evaluate(ex.parse_coefficient("2^(-1)")) == 0.5
    assert ex.evaluate(ex.parse_coefficient("2^-1")) == 0.5


def test_number_formats():
    assert ex.evaluate(ex.parse_coefficient("2.5e-3")) == 2.5e-3
    assert ex.evaluate(ex.parse_coefficient(".5")) == 0.5
    assert ex.evaluate(ex.parse_coefficient("1e3")) == 1000.0
    assert ex.parse_coefficient("1e-400") == ex.Num(0.0)  # underflows to a finite double


def test_functions():
    assert abs(ex.evaluate(ex.parse_coefficient("exp(1)")) - np.e) < 1e-15
    assert ex.evaluate(ex.parse_coefficient("abs(-3)")) == 3.0
    assert abs(ex.evaluate(ex.parse_coefficient("tanh(0)"))) == 0.0


def test_syntax_error_position_and_expected():
    with pytest.raises(ex.ExpressionSyntaxError) as info:
        ex.parse_coefficient("x[0] + * 2")
    assert info.value.position == 7
    assert "number" in info.value.expected
    with pytest.raises(ex.ExpressionSyntaxError) as info:
        ex.parse_coefficient("(1 + 2")
    assert ")" in info.value.expected
    with pytest.raises(ex.ExpressionSyntaxError, match="1e400 is not a finite double") as info:
        ex.parse_coefficient("exp(-1e400*x[0]^2)")
    assert info.value.position == 5
    for src, pos in [("x[0.5]", 2), ("m1[1e0]", 3)]:
        with pytest.raises(ex.ExpressionSyntaxError, match="index must be an integer") as info:
            ex.parse_coefficient(src)
        assert (info.value.position, info.value.expected) == (pos, ("integer",))


@pytest.mark.parametrize("fn", [ex.print_coefficient, ex.evaluate])
def test_a_node_that_is_not_an_expression_is_a_type_error(fn):
    with pytest.raises(TypeError, match="not an expression node: 1.5"):
        fn(ex.Neg(1.5))


# tokens, pieces of tokens and characters that are not in the grammar
_PIECES = ("x[0]", "m1[1]", "m2", "x", "m1", "exp(", "log(", "sqrt", "y", "_", "[", "]", "(",
           ")", "+", "-", "*", "/", "^", "0", "7", "12", ".", "0.5", ".5", "3.", "1e3", "2E-2",
           "1e400", "1e308", "e", " ", "\t", "$", ",", "é")


@settings(max_examples=500, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
@example("1e400")
def test_parse_returns_a_printable_tree_or_a_syntax_error(src):
    """Whatever the string, the parser returns a tree whose printed form parses
    back to it, or raises ExpressionSyntaxError at an offset inside the string."""
    try:
        tree = ex.parse_coefficient(src)
    except ex.ExpressionSyntaxError as e:
        assert 0 <= e.position <= len(src)
    else:
        assert ex.parse_coefficient(ex.print_coefficient(tree)) == tree


def test_unknown_identifier():
    with pytest.raises(ex.ExpressionSyntaxError) as info:
        ex.parse_coefficient("y + 1")
    assert "unknown identifier" in str(info.value)


def test_empty_expression():
    with pytest.raises(ex.ExpressionSyntaxError):
        ex.parse_coefficient("   ")


def _random_tree(g, depth):
    if depth == 0 or g.uniform() < 0.3:
        kind = g.integers(0, 4)
        if kind == 0:
            return ex.Num(float(np.round(g.uniform(0, 9), 3)))
        if kind == 1:
            return ex.Var("x", int(g.integers(0, 2)))
        if kind == 2:
            return ex.Var("m1", int(g.integers(0, 2)))
        return ex.Var("m2", 0)
    kind = g.integers(0, 3)
    if kind == 0:
        op = str(g.choice(["+", "-", "*", "/", "^"]))
        return ex.BinOp(op, _random_tree(g, depth - 1), _random_tree(g, depth - 1))
    if kind == 1:
        return ex.Neg(_random_tree(g, depth - 1))
    fn = str(g.choice(list(ex.FUNCTIONS)))
    return ex.Call(fn, _random_tree(g, depth - 1))


def test_one_validity_rule_on_random_trees():
    """Non-strict evaluation raises nothing but the missing-x error; strict
    evaluation returns the non-strict values bit for bit when they are all
    finite, and raises EvaluationError otherwise."""
    g = np.random.default_rng(14)
    kept = refused = 0
    for _ in range(400):
        tree = _random_tree(g, 4)
        x = g.uniform(-3.0, 3.0, (6, 2))
        m1 = g.uniform(-3.0, 3.0, (6, 2))
        m2 = g.uniform(0.0, 9.0, 6)
        for xs in (x, None):
            try:
                loose = ex.evaluate(tree, xs, m1, m2, strict=False)
            except ex.EvaluationError as e:
                assert xs is None and "x" in {v.kind for v in ex.variables(tree)}, tree
                assert str(e) == "x[...] is not available in this context"
                continue
            if np.isfinite(loose).all():
                kept += 1
                strict = np.asarray(ex.evaluate(tree, xs, m1, m2))
                assert strict.shape == np.shape(loose)
                assert strict.tobytes() == np.asarray(loose).tobytes(), tree
            else:
                refused += 1
                with pytest.raises(ex.EvaluationError, match=re.escape(str(tree))):
                    ex.evaluate(tree, xs, m1, m2)
    assert kept > 100 and refused > 10, (kept, refused)


def test_print_parse_roundtrip_random_trees():
    g = np.random.default_rng(9)
    for _ in range(200):
        tree = _random_tree(g, 4)
        printed = ex.print_coefficient(tree)
        reparsed = ex.parse_coefficient(printed)
        assert reparsed == tree, printed
        assert ex.print_coefficient(reparsed) == printed


def test_registry_expressions_are_fixed_points():
    from mfclab.models import REGISTRY

    for model in REGISTRY.values():
        exprs = list(model.drift) + [e for row in model.sigma for e in row]
        exprs += [model.l1, model.terminal]
        for e in exprs:
            printed = ex.print_coefficient(e)
            assert ex.print_coefficient(ex.parse_coefficient(printed)) == printed


def test_vectorized_broadcast():
    e = ex.parse_coefficient("x[0]*m1[1] + m2")
    x = np.zeros((5, 3, 2)) + 2.0
    m1 = np.zeros((5, 1, 2)) + 3.0
    m2 = np.zeros((5, 1)) + 1.0
    out = ex.evaluate(e, x, m1, m2)
    assert out.shape == (5, 3)
    assert np.all(out == 7.0)


def test_free_variables():
    e = ex.parse_coefficient("x[0] + m2*cos(m1[1])")
    assert {v.kind for v in ex.variables(e)} == {"x", "m1", "m2"}


def test_depth_limit_boundary():
    """A tree 200 levels high parses, prints back to itself and evaluates; the
    201st level is a syntax error at the offset of the token that adds it."""
    total = "+".join(["x[0]"] * 200)
    tree = ex.parse_coefficient(total)
    assert ex.print_coefficient(tree) == " + ".join(["x[0]"] * 200)
    assert ex.parse_coefficient(ex.print_coefficient(tree)) == tree
    assert ex.evaluate(tree, np.array([0.5])) == 100.0
    assert ex.parse_coefficient("(" * 199 + "m2" + ")" * 199) == ex.Var("m2", 0)
    for src, offset in [(total + "+x[0]", len(total)), ("(" * 200 + "m2" + ")" * 200, 200)]:
        with pytest.raises(ex.ExpressionSyntaxError) as err:
            ex.parse_coefficient(src)
        assert err.value.position == offset
