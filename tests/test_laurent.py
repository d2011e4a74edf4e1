"""Laurent polynomial arithmetic over Z[v, v^-1]."""

from hypothesis import given, strategies as st

from brauer_kl.laurent import LaurentPoly
from verify_routes import has_nonnegative_coeffs


def poly(d):
    return LaurentPoly(d)


small_terms = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
)
small_polys = small_terms.map(LaurentPoly)


def test_zero_one_v():
    assert not LaurentPoly.zero()
    assert LaurentPoly.one()
    assert LaurentPoly.one().coeff(0) == 1
    assert LaurentPoly.v().coeff(1) == 1
    assert LaurentPoly.v(-2, 3).coeff(-2) == 3
    assert poly({3: 1, -1: 2, 0: 0}) == poly({-1: 2, 3: 1})  # zeros are not stored


def test_add_sub_cancel():
    p = poly({-1: 2, 3: -5})
    assert not p - p
    assert p + LaurentPoly.zero() == p


def test_mul_known_product():
    # (v + v^-1)(v - v^-1) = v^2 - v^-2
    p = LaurentPoly.v(1) + LaurentPoly.v(-1)
    q = LaurentPoly.v(1) - LaurentPoly.v(-1)
    assert p * q == LaurentPoly({2: 1, -2: -1})


def test_int_scalar_multiplication():
    p = poly({0: 1, 2: 3})
    assert 2 * p == p * 2 == poly({0: 2, 2: 6})
    assert 0 * p == LaurentPoly.zero()


def test_bar_involution_swaps_exponents():
    p = poly({-1: 4, 0: 1, 3: 2})
    assert p.bar() == poly({1: 4, 0: 1, -3: 2})
    assert p.bar().bar() == p


def test_evaluate_at_one_sums_coefficients():
    assert poly({-2: 1, 0: 3, 5: -1}).evaluate_at_one() == 3


def test_positive_part_predicates():
    assert poly({1: 1, 2: 4}).in_positive_part()
    assert not poly({0: 1, 1: 1}).in_positive_part()
    assert not poly({-1: 1}).in_positive_part()
    assert LaurentPoly.zero().in_positive_part()
    assert has_nonnegative_coeffs(poly({0: 2}))
    assert not has_nonnegative_coeffs(poly({0: 2, 1: -1}))


def test_str_rendering():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly.v(1) + LaurentPoly.v(-1)) == "v^-1 + v"


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(small_polys, small_polys)
def test_bar_is_ring_automorphism(p, q):
    assert (p + q).bar() == p.bar() + q.bar()
    assert (p * q).bar() == p.bar() * q.bar()


@given(small_polys)
def test_evaluate_at_one_is_bar_stable(p):
    assert p.evaluate_at_one() == p.bar().evaluate_at_one()


@given(small_terms, st.lists(st.integers(min_value=-6, max_value=6), max_size=3), st.data())
def test_term_order_and_zero_terms_do_not_change_the_value(terms, zeros, data):
    # a polynomial keeps its terms in the order given; its value, hash and
    # printed forms must not depend on that order or on zero terms
    items = list(terms.items())
    shuffled = data.draw(st.permutations(items + [(e, 0) for e in zeros if e not in terms]))
    p, q = LaurentPoly(dict(items)), LaurentPoly(dict(shuffled))
    assert p == q
    assert hash(p) == hash(q)
    assert (repr(p), str(p)) == (repr(q), str(q))
    nonzero = {e: c for e, c in sorted(items) if c}
    assert repr(p) == f"LaurentPoly({nonzero!r})"
