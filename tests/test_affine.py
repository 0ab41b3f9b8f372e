"""Tests for affine expressions, comparisons and conjunctions."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import IRError
from repro.lang.affine import Affine, And, Cmp, conjoin


class TestConstruction:
    def test_constant(self):
        a = Affine.const_of(5)
        assert a.is_constant
        assert a.constant_value() == 5
        assert a.symbols == frozenset()

    def test_variable(self):
        v = Affine.var("i")
        assert not v.is_constant
        assert v.coeff("i") == 1
        assert v.symbols == {"i"}

    def test_zero_coefficients_dropped(self):
        a = Affine({"i": 0, "j": 2}, 1)
        assert a.symbols == {"j"}
        assert a == Affine({"j": 2}, 1)

    def test_of_int_str_affine(self):
        assert Affine.of(3) == Affine.const_of(3)
        assert Affine.of("k") == Affine.var("k")
        a = Affine({"i": 1}, 2)
        assert Affine.of(a) is a

    def test_of_rejects_junk(self):
        with pytest.raises(IRError):
            Affine.of(3.5)

    def test_constant_value_rejects_symbolic(self):
        with pytest.raises(IRError):
            Affine.var("i").constant_value()


class TestArithmetic:
    def test_add(self):
        assert Affine.var("i") + 1 == Affine({"i": 1}, 1)
        assert Affine.var("i") + Affine.var("j") == Affine({"i": 1, "j": 1}, 0)

    def test_add_cancels(self):
        a = Affine({"i": 2}, 0) + Affine({"i": -2}, 3)
        assert a == Affine.const_of(3)

    def test_sub(self):
        assert Affine.var("i") - Affine.var("i") == Affine.const_of(0)
        assert 5 - Affine.var("i") == Affine({"i": -1}, 5)

    def test_neg(self):
        assert -Affine({"i": 2}, -1) == Affine({"i": -2}, 1)

    def test_mul_scalar(self):
        assert Affine({"i": 2}, 1) * 3 == Affine({"i": 6}, 3)
        assert 0 * Affine.var("i") == Affine.const_of(0)

    def test_mul_by_constant_affine(self):
        assert Affine.var("i") * Affine.const_of(4) == Affine({"i": 4}, 0)

    def test_mul_by_symbolic_affine_rejected(self):
        with pytest.raises(IRError):
            Affine.var("i") * Affine.var("j")


class TestEvaluation:
    def test_evaluate(self):
        a = Affine({"i": 3, "j": -1}, 2)
        assert a.evaluate({"i": 4, "j": 5}) == 3 * 4 - 5 + 2

    def test_evaluate_unbound(self):
        with pytest.raises(IRError):
            Affine.var("i").evaluate({})

    def test_evaluate_vec(self):
        a = Affine({"i": 2}, 1)
        out = a.evaluate_vec({"i": np.arange(4)})
        assert list(out) == [1, 3, 5, 7]

    def test_evaluate_vec_broadcast(self):
        a = Affine({"i": 1, "j": 1}, 0)
        i = np.arange(3).reshape(3, 1)
        j = np.arange(2).reshape(1, 2)
        out = a.evaluate_vec({"i": i, "j": j})
        assert out.shape == (3, 2)
        assert out[2, 1] == 3

    def test_substitute(self):
        a = Affine({"i": 2, "j": 1}, 1)
        out = a.substitute({"i": Affine({"k": 1}, 3)})
        assert out == Affine({"k": 2, "j": 1}, 7)

    def test_rename(self):
        a = Affine({"i": 2}, 0)
        assert a.rename({"i": "t"}) == Affine({"t": 2}, 0)


class TestHashEq:
    def test_equal_hash(self):
        a = Affine({"i": 1, "j": 2}, 3)
        b = Affine({"j": 2, "i": 1}, 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_in_sets(self):
        s = {Affine.var("i"), Affine.var("i") + 0, Affine.var("j")}
        assert len(s) == 2


class TestRendering:
    @pytest.mark.parametrize(
        "affine, text",
        [
            (Affine.const_of(0), "0"),
            (Affine.const_of(-2), "-2"),
            (Affine.var("i"), "i"),
            (Affine({"i": -1}, 0), "-i"),
            (Affine({"i": 2}, 0), "2*i"),
            (Affine({"i": 1}, -1), "i - 1"),
            (Affine({"i": 1, "j": 3}, 2), "i + 3*j + 2"),
            (Affine({"i": -2}, 5), "-2*i + 5"),
        ],
    )
    def test_str(self, affine, text):
        assert str(affine) == text


class TestCmp:
    def test_evaluate(self):
        c = Cmp("<=", Affine.var("i"), Affine.const_of(3))
        assert c.evaluate({"i": 3})
        assert not c.evaluate({"i": 4})

    def test_negate_roundtrip(self):
        for op in ("<", "<=", ">", ">=", "==", "!="):
            c = Cmp(op, Affine.var("i"), Affine.const_of(0))
            assert c.negate().negate() == c

    def test_negate_semantics(self):
        c = Cmp("<", Affine.var("i"), Affine.const_of(2))
        for v in range(-2, 5):
            assert c.evaluate({"i": v}) != c.negate().evaluate({"i": v})

    def test_unknown_op(self):
        with pytest.raises(IRError):
            Cmp("<>", Affine.var("i"), Affine.const_of(0))

    def test_vec(self):
        c = Cmp("==", Affine.var("i"), Affine.const_of(2))
        out = c.evaluate_vec({"i": np.arange(4)})
        assert list(out) == [False, False, True, False]

    def test_substitute(self):
        c = Cmp("<", Affine.var("i"), Affine.var("n"))
        out = c.substitute({"i": Affine({"t": 1}, 1)})
        assert out.evaluate({"t": 1, "n": 3})
        assert not out.evaluate({"t": 2, "n": 3})


class TestAnd:
    def test_evaluate(self):
        cond = And(
            (
                Cmp(">=", Affine.var("i"), Affine.const_of(1)),
                Cmp("<", Affine.var("i"), Affine.const_of(4)),
            )
        )
        assert [cond.evaluate({"i": v}) for v in range(5)] == [
            False,
            True,
            True,
            True,
            False,
        ]

    def test_vec(self):
        cond = And(
            (
                Cmp(">=", Affine.var("i"), Affine.const_of(1)),
                Cmp("<", Affine.var("i"), Affine.const_of(3)),
            )
        )
        out = cond.evaluate_vec({"i": np.arange(4)})
        assert list(out) == [False, True, True, False]

    def test_conjoin_single(self):
        c = Cmp("<", Affine.var("i"), Affine.const_of(2))
        assert conjoin([c]) == c

    def test_conjoin_flattens(self):
        c1 = Cmp("<", Affine.var("i"), Affine.const_of(2))
        c2 = Cmp(">", Affine.var("j"), Affine.const_of(0))
        inner = And((c1, c2))
        out = conjoin([inner, c1])
        assert isinstance(out, And)
        assert len(out.parts) == 3


# -- property-based tests ---------------------------------------------------

coeffs = st.dictionaries(st.sampled_from("ijkn"), st.integers(-5, 5), max_size=3)
consts = st.integers(-10, 10)
envs = st.fixed_dictionaries({v: st.integers(-7, 7) for v in "ijkn"})


@st.composite
def affines(draw):
    return Affine(draw(coeffs), draw(consts))


@given(affines(), affines(), envs)
def test_add_homomorphic(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(affines(), affines(), envs)
def test_sub_homomorphic(a, b, env):
    assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)


@given(affines(), st.integers(-4, 4), envs)
def test_mul_homomorphic(a, k, env):
    assert (a * k).evaluate(env) == a.evaluate(env) * k


@given(affines(), affines(), envs)
def test_substitution_composes(a, b, env):
    """Substituting then evaluating equals evaluating the composition."""
    substituted = a.substitute({"i": b})
    env_inner = dict(env)
    env_inner["i"] = b.evaluate(env)
    assert substituted.evaluate(env) == a.evaluate(env_inner)


def _substitute_term_by_term(a, bindings):
    """Reference composition: add each term's image one at a time."""
    result = Affine.const_of(a.const)
    for s, c in a.terms.items():
        image = Affine.of(bindings[s]) if s in bindings else Affine.var(s)
        result = result + image * c
    return result


# Bindings of a subset of the symbols (the rest stay unbound) to ints,
# symbol names or affines over the same symbols.
bindings = st.dictionaries(
    st.sampled_from("ijkn"),
    st.one_of(st.integers(-5, 5), st.sampled_from("ijkn"), affines()),
    max_size=4,
)


@given(affines(), bindings)
@example(Affine({"i": 1, "j": 1}, 0), {"i": Affine({"j": -1}, 2)})  # j cancels
@example(Affine({"i": 2, "j": 1}, 1), {"i": "j", "j": 5})  # no re-substitution
def test_one_pass_substitute_matches_term_by_term(a, binds):
    out = a.substitute(binds)
    assert out == _substitute_term_by_term(a, binds)
    assert 0 not in out.terms.values()


@given(affines())
def test_str_parse_roundtrip_via_parser_grammar(a):
    """The printer's affine rendering is parseable by the parser."""
    from repro.lang.parser import _Parser

    text = str(a)
    parsed = _Parser(text).parse_affine()
    assert parsed == a


@given(affines(), affines())
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)
