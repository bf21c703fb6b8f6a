"""Integer cyclotomic arithmetic in Z[zeta_N]: ring axioms on random
coefficient vectors, roots of unity, and the certified exact division."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cohomolab.char_chern import Cyclotomic

CONDUCTORS = [3, 4, 5, 8, 9, 12, 15]


@st.composite
def elements(draw, N):
    # up to N coefficients, so the reduction mod Phi_N is exercised too
    coeffs = draw(st.lists(st.integers(-50, 50), max_size=N))
    return Cyclotomic(N, coeffs)


@st.composite
def triples(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    return N, draw(elements(N)), draw(elements(N)), draw(elements(N))


def evaluate(x: Cyclotomic) -> complex:
    """x at zeta_N = exp(2 pi i / N): an independent floating-point route."""
    z = cmath.exp(2j * cmath.pi / x.N)
    return sum(c * z ** k for k, c in enumerate(x.coeffs))


@settings(max_examples=150, deadline=None)
@given(triples())
def test_ring_axioms(t):
    N, a, b, c = t
    zero, one = Cyclotomic.zero(N), Cyclotomic.integer(N, 1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - b) + b == a and (a - a).is_zero()
    assert a.scale(3) == a + a + a
    for x in (a + b, a - b, a * b, a.scale(-2)):
        assert len(x.coeffs) == len(a.coeffs)
        assert all(type(v) is int for v in x.coeffs)
    assert abs(evaluate(a * b) - evaluate(a) * evaluate(b)) < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(-40, 40),
       st.integers(-40, 40))
def test_roots_multiply_by_adding_exponents(N, a, b):
    assert Cyclotomic.root(N, a) * Cyclotomic.root(N, b) == \
        Cyclotomic.root(N, a + b)
    assert Cyclotomic.root(N, N * a) == Cyclotomic.integer(N, 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(-1000, 1000),
       st.integers(1, 30))
def test_divide_exact_on_integers(N, k, n):
    assert Cyclotomic.integer(N, n * k).divide_exact(n) == k
    assert Cyclotomic.integer(N, k).scale(n).divide_exact(n) == k
    if n > 1:
        for r in (1, n - 1):
            with pytest.raises(ArithmeticError):
                Cyclotomic.integer(N, n * k + r).divide_exact(n)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda N: st.tuples(elements(N), st.integers(1, 30))))
def test_divide_exact_rejects_non_rational(t):
    x, n = t
    assume(any(x.coeffs[1:]))
    with pytest.raises(ArithmeticError):
        x.divide_exact(n)
    with pytest.raises(ArithmeticError):
        x.scale(n).divide_exact(n)


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        Cyclotomic(5, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        Cyclotomic.root(5, 1).scale(Fraction(1, 2))
