"""Exact symbolic layer: normal forms, involutions, grading, matrix
units, and the same-length expansion."""

import importlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lpcuntz as lp
from lpcuntz.cli import rep_from_descriptor
from lpcuntz.leavitt import QC, AlgebraElement, mul_raw

K2 = lp.leavitt(2)
K3 = lp.leavitt(3)
C2 = lp.cohn(2)
LINF = lp.leavitt_infinity()


def coeffs():
    small = st.integers(min_value=-3, max_value=3)
    return st.builds(QC, small, small).filter(lambda c: not c.is_zero())


def word(d, max_len=3):
    return st.lists(
        st.integers(min_value=1, max_value=d), min_size=0, max_size=max_len
    ).map(tuple)


def elements(kind=K2, d=2):
    pair = st.tuples(word(d), word(d))
    return st.dictionaries(pair, coeffs(), min_size=0, max_size=4).map(
        lambda terms: AlgebraElement(kind, terms)
    )


# -- scalars ----------------------------------------------------------------


def test_scalar_arithmetic_is_exact():
    a = QC(Fraction(1, 3), Fraction(1, 7))
    b = QC(Fraction(2, 5), Fraction(-1, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a
    assert QC(1) / QC(0, 1) == QC(0, -1)


def test_scalar_rejects_rounding():
    with pytest.raises(TypeError):
        QC(0.1)
    assert QC(2.0) == QC(2)


# -- kinds and construction ---------------------------------------------------


def test_kind_validation():
    with pytest.raises(ValueError):
        lp.leavitt(1)
    with pytest.raises(ValueError):
        lp.cohn(0)
    with pytest.raises(ValueError):
        lp.monomial(K2, (3,), ())
    lp.monomial(LINF, (17,), ())  # any positive index is fine for L_inf


def test_zero_coefficients_dropped():
    a = AlgebraElement(K2, {((1,), ()): QC(1), ((1,), (2,)): QC(0)})
    assert len(a.terms) == 1


# -- normal form ---------------------------------------------------------------


def test_normal_form_spec_examples():
    s2t2 = lp.monomial(K2, (2,), (2,))
    assert not s2t2.canonical
    nf = lp.normal_form(s2t2)
    assert nf == lp.unit(K2) - lp.monomial(K2, (1,), (1,))
    assert lp.normal_form(
        lp.monomial(K2, (1,), (1,)) + lp.monomial(K2, (2,), (2,))
    ) == lp.unit(K2)
    # the Cohn algebra keeps s2 t2 as is
    c = lp.monomial(C2, (2,), (2,))
    assert lp.normal_form(c) is c and c.canonical


def test_normal_form_idempotent_and_canonical_flag():
    a = lp.monomial(K2, (1, 2), (2, 2)) + lp.monomial(K2, (2, 2), (1, 2))
    nf = lp.normal_form(a)
    assert nf.canonical
    assert lp.normal_form(nf) is nf


@given(elements())
@settings(max_examples=60, deadline=None)
def test_normal_form_confluent_under_rewrite_order(a):
    import random

    ref = lp.normal_form(a)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        out = lp.normal_form(a, _pop_order=rng.shuffle)
        assert out.terms == ref.terms


def test_mul_spec_examples():
    assert lp.mul(lp.monomial(K2, (1,), (2,)), lp.monomial(K2, (2,), (1,))) == lp.monomial(K2, (1,), (1,))
    assert lp.mul(lp.monomial(K2, (1,), (1,)), lp.monomial(K2, (2,), (2,))).is_zero()
    one = lp.normal_form(lp.monomial(K2, (1,), (1,)) + lp.monomial(K2, (2,), (2,)))
    assert lp.mul(lp.gen_t(K2, 1), one) == lp.gen_t(K2, 1)


def test_mul_kind_mismatch():
    with pytest.raises(ValueError):
        lp.mul(lp.unit(K2), lp.unit(C2))


@given(elements(), elements(), elements())
@settings(max_examples=40, deadline=None)
def test_mul_associative_and_distributive(a, b, c):
    assert lp.mul(lp.mul(a, b), c) == lp.mul(a, lp.mul(b, c))
    assert lp.mul(a, b + c) == lp.mul(a, b) + lp.mul(a, c)
    assert lp.mul(a + b, c) == lp.mul(a, c) + lp.mul(b, c)


def loop_product_terms(a, b, reduce):
    """Reference: every term pair tested by prefix matching, exact QC
    arithmetic throughout, then the worklist reduction on QC coefficients."""

    def contract(beta, gamma):
        if len(beta) <= len(gamma):
            return ("s", gamma[len(beta):]) if gamma[: len(beta)] == beta else None
        return ("t", beta[len(gamma):]) if beta[: len(gamma)] == gamma else None

    def add(terms, key, delta):
        acc = terms.get(key, QC(0)) + delta
        if acc.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = acc

    terms = {}
    for (alpha, beta), ca in a.terms.items():
        for (gamma, delta), cb in b.terms.items():
            hit = contract(beta, gamma)
            if hit is not None:
                side, rest = hit
                key = (alpha + rest, delta) if side == "s" else (alpha, delta + rest)
                add(terms, key, ca * cb)
    if not (reduce and a.kind.has_sum_relation):
        return terms
    d = a.kind.d
    reducible = lambda k: bool(k[0]) and bool(k[1]) and k[0][-1] == d and k[1][-1] == d
    work = [k for k in terms if reducible(k)]
    while work:
        key = work.pop()
        coeff = terms.pop(key, None)
        if coeff is None:
            continue
        alpha, beta = key
        updates = [((alpha[:-1], beta[:-1]), coeff)]
        updates += [((alpha[:-1] + (j,), beta[:-1] + (j,)), -coeff) for j in range(1, d)]
        for k2, delta in updates:
            add(terms, k2, delta)
            if k2 in terms and reducible(k2):
                work.append(k2)
    return terms


KINDS = (K2, K3, C2, lp.cohn(3), LINF)


@st.composite
def element_pairs(draw):
    kind = draw(st.sampled_from(KINDS))
    d = kind.d or 3
    part = st.builds(
        Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=6)
    )
    # the letter d is drawn often, so that rewrites cascade (s_dd t_dd -> s_d t_d - ...)
    letters = st.one_of(st.just(d), st.integers(min_value=1, max_value=d))
    words_ = st.lists(letters, max_size=4).map(tuple)
    pair = st.tuples(words_, words_)
    terms = st.dictionaries(pair, st.builds(QC, part, part), max_size=5)
    return kind, AlgebraElement(kind, draw(terms)), AlgebraElement(kind, draw(terms))


@given(element_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_products_match_all_pairs_reference(pair, rnd):
    kind, a, b = pair
    expected = loop_product_terms(a, b, reduce=True)
    assert lp.mul(a, b).terms == expected
    raw = mul_raw(a, b)
    assert raw.terms == loop_product_terms(a, b, reduce=False)
    shuffled = lp.normal_form(raw, _pop_order=rnd.shuffle)
    assert shuffled.terms == lp.normal_form(raw).terms == expected
    # products that cancel to zero: (t1 + t2)(s1 - s2) = 0 in every kind,
    # and a (sum_j s_j t_j - 1) = 0 after reduction
    a_t = mul_raw(a, lp.linear_comb_t(kind, [1, 1]))
    assert mul_raw(a_t, lp.linear_comb_s(kind, [1, -1])).is_zero()
    assert loop_product_terms(a_t, lp.linear_comb_s(kind, [1, -1]), reduce=False) == {}
    if kind.has_sum_relation:
        rel = sum((lp.monomial(kind, (j,), (j,)) for j in range(2, kind.d + 1)),
                  lp.monomial(kind, (1,), (1,))) - lp.unit(kind)
        assert lp.mul(a, rel).is_zero() and lp.mul(rel, b).is_zero()


# -- the dict join and the sparse join ------------------------------------------

LEAVITT = importlib.import_module("lpcuntz.leavitt")  # the module; lp.leavitt is a function


def joined(a, b, reduce=True, min_pairs=0):
    """The product's terms as (key, (re, im)) in key order, and whether
    the sparse join ran: min_pairs=0 forces it wherever the 2**53 guard
    allows, and min_pairs=math.inf keeps the dict join."""
    with mock.patch.object(LEAVITT, "SPARSE_JOIN_MIN_PAIRS", min_pairs), mock.patch.object(
        LEAVITT, "_sparse_join", wraps=LEAVITT._sparse_join
    ) as spy:
        product = lp.mul(a, b) if reduce else mul_raw(a, b)
    return [(key, (c.re, c.im)) for key, c in product.terms.items()], spy.called


@given(element_pairs())
@settings(max_examples=150, deadline=None)
def test_sparse_join_matches_dict_join(pair):
    kind, a, b = pair
    for reduce in (False, True):
        terms, used = joined(a, b, reduce)
        assert used and dict(terms) == dict(joined(a, b, reduce, math.inf)[0])
    # products that cancel to zero
    a_t = mul_raw(a, lp.linear_comb_t(kind, [1, 1]))
    assert joined(a_t, lp.linear_comb_s(kind, [1, -1]), reduce=False) == ([], True)
    if kind.has_sum_relation:
        rel = sum((lp.monomial(kind, (j,), (j,)) for j in range(2, kind.d + 1)),
                  lp.monomial(kind, (1,), (1,))) - lp.unit(kind)
        assert joined(a, rel) == ([], True) and joined(rel, b) == ([], True)


@given(elements(K3, 3), st.sampled_from([QC(1), QC(Fraction(1, 3), Fraction(2, 7)), QC(0, Fraction(5, 4))]))
@settings(max_examples=100, deadline=None)
def test_to_lattice_matches_per_term_lcm(a, scale):
    from lpcuntz.leavitt import _to_lattice

    terms = (a * scale).terms
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.re.denominator, c.im.denominator)
    pairs = {
        key: (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for key, c in terms.items()
    }
    got_den, got = _to_lattice(terms)
    assert (got_den, got) == (den, pairs) and list(got) == list(pairs)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_sparse_join_guard_at_2_53(kind):
    # |a|_1 |b|_1 = 4c: 2**53 - 4 keeps the sparse join, 2**53 takes the dict join
    b = lp.linear_comb_s(kind, [1, 1])
    for c, sparse_ran in ((2**51 - 1, True), (2**51, False)):
        a = lp.linear_comb_t(kind, [c, c])
        terms, used = joined(a, b)
        assert used is sparse_ran
        assert terms == joined(a, b, min_pairs=math.inf)[0] == [(((), ()), (Fraction(2 * c), 0))]
        assert dict(terms) == {k: (v.re, v.im) for k, v in loop_product_terms(a, b, True).items()}


@pytest.mark.parametrize("d, m", [(2, 3), (3, 2)])
def test_sparse_join_on_matrix_units_matches_numpy(d, m):
    rng = np.random.default_rng(23)
    kind, n = lp.leavitt(d), d**m

    def table(re, im):
        return [[QC(int(x), int(y)) for x, y in zip(r, i)] for r, i in zip(re, im)]

    for _ in range(4):
        (ar, ai), (br, bi) = rng.integers(-3, 4, size=(2, 2, n, n))
        ea = lp.matrix_unit_embed(kind, m, table(ar, ai))
        eb = lp.matrix_unit_embed(kind, m, table(br, bi))
        terms, used = joined(ea, eb)
        assert used and dict(terms) == dict(joined(ea, eb, min_pairs=math.inf)[0])
        expected = lp.matrix_unit_embed(kind, m, table(ar @ br - ai @ bi, ar @ bi + ai @ br))
        assert dict(terms) == {k: (c.re, c.im) for k, c in expected.terms.items()}


@pytest.mark.parametrize("descriptor", ["interval", "fourier:sequence"])
@pytest.mark.parametrize("d, m", [(2, 3), (3, 2), (2, 4)])
def test_evaluate_of_a_product_does_not_depend_on_the_join(d, m, descriptor):
    # the joins give the same terms in their own orders, and evaluate
    # sums in term order, so only the last bits may differ
    rng = np.random.default_rng(26)
    kind, n = lp.leavitt(d), d**m
    rep = rep_from_descriptor(descriptor, d, 3.0)
    (ar, ai), (br, bi) = rng.integers(-3, 4, size=(2, 2, n, n))
    ea = lp.matrix_unit_embed(kind, m, [[QC(int(x), int(y)) for x, y in zip(*r)] for r in zip(ar, ai)])
    eb = lp.matrix_unit_embed(kind, m, [[QC(int(x), int(y)) for x, y in zip(*r)] for r in zip(br, bi)])
    assert joined(ea, eb)[1]
    by_join = []
    for min_pairs in (0, math.inf):
        with mock.patch.object(LEAVITT, "SPARSE_JOIN_MIN_PAIRS", min_pairs):
            by_join.append(lp.evaluate(rep, lp.mul(ea, eb), m).entries)
    by_sparse, by_dict = by_join
    assert np.abs(by_sparse - by_dict).max() <= 1e-13 * max(1.0, np.abs(by_dict).max())


# -- involutions ----------------------------------------------------------------


def test_involution_spec_examples():
    i_s1t2 = lp.monomial(K2, (1,), (2,), QC(0, 1))
    assert lp.star(i_s1t2) == lp.monomial(K2, (2,), (1,), QC(0, -1))
    assert lp.prime(i_s1t2) == lp.monomial(K2, (2,), (1,), QC(0, 1))


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_involution_laws(a, b):
    assert lp.star(lp.star(a)) == a
    assert lp.prime(lp.prime(a)) == a
    assert lp.star(lp.mul(a, b)) == lp.mul(lp.star(b), lp.star(a))
    assert lp.prime(lp.mul(a, b)) == lp.mul(lp.prime(b), lp.prime(a))
    # star is conjugate-linear, prime is linear
    z = QC(2, 3)
    assert lp.star(a.scale(z)) == lp.star(a).scale(z.conjugate())
    assert lp.prime(a.scale(z)) == lp.prime(a).scale(z)


# -- grading ---------------------------------------------------------------------


def test_graded_components_examples():
    a = lp.monomial(K2, (1,), (2, 1))
    comps = lp.graded_components(a)
    assert list(comps) == [-1] and comps[-1] == a
    b = lp.unit(K2) + lp.gen_s(K2, 1)
    comps = lp.graded_components(b)
    assert set(comps) == {0, 1}
    assert comps[0] == lp.unit(K2) and comps[1] == lp.gen_s(K2, 1)


def test_graded_components_requires_canonical():
    with pytest.raises(ValueError):
        lp.graded_components(lp.monomial(K2, (2,), (2,)))


@given(elements(), elements())
@settings(max_examples=30, deadline=None)
def test_grading_respects_products(a, b):
    ca = lp.graded_components(lp.normal_form(a))
    cb = lp.graded_components(lp.normal_form(b))
    prod = lp.graded_components(lp.mul(a, b))
    for k, part in prod.items():
        conv = lp.zero(K2)
        for i, ai in ca.items():
            j = k - i
            if j in cb:
                conv = conv + lp.mul(ai, cb[j])
        assert part == lp.normal_form(conv)


# -- same-length form --------------------------------------------------------------


def test_same_length_examples():
    # minimal common right length for s_1 is 0; asking for length 1
    # reproduces the padded table s_11 t_1 + s_12 t_2
    form = lp.same_length_form([lp.gen_s(K2, 1)], n_min=1)
    assert form.n == 1
    rebuilt = form.rebuild(K2, 0)
    assert rebuilt == lp.gen_s(K2, 1)
    assert set(form.coefficients[0]) == {((1, 1), (1,)), ((1, 2), (2,))}

    form = lp.same_length_form([lp.unit(K2)])
    assert form.n == 0 and form.alphas == ((),)

    form = lp.same_length_form([lp.gen_t(K2, 1), lp.gen_t(K2, 2)])
    assert form.n == 1
    for k in (0, 1):
        assert form.rebuild(K2, k) == lp.gen_t(K2, k + 1)
        assert all(len(b) == 1 for (_, b) in form.coefficients[k])


def test_same_length_mixed_depths():
    a = lp.monomial(K2, (1,), (2, 1)) + lp.gen_s(K2, 2)
    b = lp.gen_t(K2, 1)
    form = lp.same_length_form([a, b])
    assert form.n == 2
    assert form.rebuild(K2, 0) == a and form.rebuild(K2, 1) == b
    for table in form.coefficients:
        assert all(len(beta) == 2 for (_, beta) in table)


def test_same_length_needs_leavitt():
    with pytest.raises(ValueError):
        lp.same_length_form([lp.unit(C2)])


# -- matrix units --------------------------------------------------------------------


def test_matrix_unit_identity_collapses():
    ident = {(w, w): 1 for w in lp.words(2, 1)}
    assert lp.matrix_unit_embed(K2, 1, ident) == lp.unit(K2)
    ident3 = {(w, w): 1 for w in lp.words(3, 2)}
    assert lp.matrix_unit_embed(K3, 2, ident3) == lp.unit(K3)


def test_matrix_unit_multiplicativity():
    import random

    rng = random.Random(5)
    # real tables at d = 2, then complex Gaussian-integer tables at d = 3,
    # whose embeddings have many terms on each t-word
    scalars = (
        (K2, lambda: rng.randint(-2, 2)),
        (K3, lambda: QC(rng.randint(-2, 2), rng.randint(-2, 2))),
    )
    for kind, scalar in scalars:
        ws = lp.words(kind.d, 2)
        for _ in range(5):
            M = [[scalar() for _ in ws] for _ in ws]
            N = [[scalar() for _ in ws] for _ in ws]
            MN = [
                [sum((M[i][k] * N[k][j] for k in range(len(ws))), QC(0)) for j in range(len(ws))]
                for i in range(len(ws))
            ]
            lhs = lp.mul(lp.matrix_unit_embed(kind, 2, M), lp.matrix_unit_embed(kind, 2, N))
            assert lhs == lp.matrix_unit_embed(kind, 2, MN)


def test_matrix_unit_law():
    ws = lp.words(2, 2)
    for alpha in ws[:2]:
        for beta in ws[:2]:
            for gamma in ws[:2]:
                for delta in ws[:2]:
                    lhs = lp.mul(
                        lp.monomial(K2, alpha, beta), lp.monomial(K2, gamma, delta)
                    )
                    expected = (
                        lp.monomial(K2, alpha, delta) if beta == gamma else lp.zero(K2)
                    )
                    assert lhs == expected


def test_matrix_unit_bad_word_length():
    with pytest.raises(ValueError):
        lp.matrix_unit_embed(K2, 2, {((1,), (1,)): 1})


# -- linear combinations -----------------------------------------------------------


def test_linear_comb():
    assert lp.linear_comb_s(K2, [1, 0]) == lp.gen_s(K2, 1)
    assert lp.mul(lp.linear_comb_t(K2, [1, 1]), lp.linear_comb_s(K2, [1, -1])).is_zero()
    assert lp.mul(
        lp.linear_comb_t(K2, [2, 3]), lp.linear_comb_s(K2, [1, 1])
    ) == lp.unit(K2).scale(5)
    with pytest.raises(ValueError):
        lp.linear_comb_s(K2, [1, 2, 3])
    # finitely supported vectors are fine in the infinite algebra
    lam = [0, 1, 0, 0, 2]
    e = lp.linear_comb_s(LINF, lam)
    assert e.coefficient((5,), ()) == QC(2)


def test_word_sum_collapses_to_unit():
    for d, kind in ((2, K2), (3, K3)):
        for m in range(1, 5):
            total = lp.zero(kind)
            for w in lp.words(d, m):
                total = total + lp.monomial(kind, w, w)
            assert lp.normal_form(total) == lp.unit(kind)


@given(elements())
@settings(max_examples=30, deadline=None)
def test_raw_relation_padding_is_invisible(a):
    # adding (sum_j s_j t_j - 1) * m never changes the canonical form
    rel = (
        lp.monomial(K2, (1,), (1,))
        + lp.monomial(K2, (2,), (2,))
        - lp.unit(K2)
    )
    m = lp.monomial(K2, (2, 1), (2,))
    b = a + mul_raw(rel, m)
    assert lp.normal_form(b) == lp.normal_form(a)
