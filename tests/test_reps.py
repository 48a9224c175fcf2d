"""Graded representations: constructors, evaluation, derived
representations, and the spatiality report."""

import numpy as np
import pytest
from scipy import sparse

import lpcuntz as lp
from lpcuntz.leavitt import QC
from lpcuntz.reps import block_scalar_twist

K2 = lp.leavitt(2)


def qc(z, scale=4096):
    from fractions import Fraction

    return QC(
        Fraction(int(round(z.real * scale)), scale),
        Fraction(int(round(z.imag * scale)), scale),
    )


def random_exact_element(rng, kind, max_terms=4, max_len=2, degree=None):
    d = kind.d
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        if degree is None:
            la = int(rng.integers(0, max_len + 1))
            lb = int(rng.integers(0, max_len + 1))
        else:
            lb = int(rng.integers(max(0, -degree), max_len + 1))
            la = lb + degree
        alpha = tuple(int(x) for x in rng.integers(1, d + 1, la))
        beta = tuple(int(x) for x in rng.integers(1, d + 1, lb))
        terms[(alpha, beta)] = qc(rng.standard_normal() + 1j * rng.standard_normal())
    return lp.AlgebraElement(kind, terms)


# -- constructors and relations ------------------------------------------------


def test_interval_rep_action():
    for p in (1.0, 1.5, 3.0):
        rep = lp.interval_rep(2, p)
        s1 = rep.generator_operator("s", 1, 0)
        # the constant function goes to 2^(1/p) on the left half
        out = s1.apply([1.0])
        assert out[0] == pytest.approx(2 ** (1 / p)) and out[1] == 0
        assert lp.vector_norm(rep.space(1), out, p) == pytest.approx(1.0)
        ident = lp.evaluate(
            rep, lp.monomial(K2, (1,), (1,)) + lp.monomial(K2, (2,), (2,)), 1
        )
        assert np.abs(ident.entries - np.eye(2)).max() < 1e-15


def test_sequence_rep_action():
    rep = lp.sequence_rep(2, 3.0)
    s1 = rep.generator_operator("s", 1, 0)
    s2 = rep.generator_operator("s", 2, 0)
    assert np.allclose(s1.entries, [[1.0], [0.0]])
    assert np.allclose(s2.entries, [[0.0], [1.0]])
    t1 = rep.generator_operator("t", 1, 1)
    assert np.allclose(t1.entries, [[1.0, 0.0]])  # w_{2,1} delta_2 = 0
    rng = np.random.default_rng(0)
    for p in (1.0, 1.5, 3.0):
        repp = lp.sequence_rep(2, p)
        sop = {j: repp.generator_operator("s", j, 2) for j in (1, 2)}
        for _ in range(10):
            lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            out = sum(complex(lam[j - 1]) * sop[j].apply(xi) for j in (1, 2))
            lhs = lp.vector_norm(repp.space(3), out, p)
            rhs = lp.lp_norm(lam, p) * lp.vector_norm(repp.space(2), xi, p)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_relation_residuals_small_grid():
    for d in (2, 3):
        for p in (1.0, 2.0, 3.0):
            assert lp.check_relations(lp.interval_rep(d, p), 3) < 1e-12
            assert lp.check_relations(lp.sequence_rep(d, p), 3) < 1e-12


# -- evaluation ------------------------------------------------------------------


def test_evaluate_unit_and_monomials():
    rep = lp.sequence_rep(2, 3.0)
    assert np.abs(lp.evaluate(rep, lp.unit(K2), 2).entries - np.eye(4)).max() == 0
    M = lp.evaluate(rep, lp.monomial(K2, (1, 2), (2,)), 1)
    nnz = (np.abs(M.entries) > 0).sum(axis=0)
    assert set(nnz) <= {0, 1}


def test_evaluate_level_too_small():
    rep = lp.sequence_rep(2, 3.0)
    with pytest.raises(ValueError):
        lp.evaluate(rep, lp.monomial(K2, (), (1, 1)), 1)


def test_evaluate_kind_mismatch():
    rep = lp.sequence_rep(2, 3.0)
    with pytest.raises(ValueError):
        lp.evaluate(rep, lp.unit(lp.cohn(2)), 2)


def test_evaluate_respects_normal_form():
    rng = np.random.default_rng(1)
    for ctor in (lp.interval_rep, lp.sequence_rep):
        rep = ctor(2, 3.0)
        for _ in range(10):
            a = random_exact_element(rng, K2)
            raw = lp.evaluate(rep, a, 3, reduce=False)
            red = lp.evaluate(rep, lp.normal_form(a), 3)
            assert np.abs(raw.entries - red.entries).max() < 1e-10


def test_evaluators_constant_on_normal_form_classes():
    # a and a + (sum_j s_j t_j - 1) m share a canonical form, and every
    # evaluator sends them to the same matrix even without reducing
    from lpcuntz.leavitt import mul_raw

    rng = np.random.default_rng(12)
    rel = (
        lp.monomial(K2, (1,), (1,))
        + lp.monomial(K2, (2,), (2,))
        - lp.unit(K2)
    )
    for ctor in (lp.interval_rep, lp.sequence_rep):
        rep = ctor(2, 3.0)
        for _ in range(8):
            a = random_exact_element(rng, K2, max_len=2)
            m = random_exact_element(rng, K2, max_terms=2, max_len=1)
            b = a + mul_raw(rel, m)
            assert lp.normal_form(b) == lp.normal_form(a)
            level = max(a.t_depth(), b.t_depth(), 2)
            A = lp.evaluate(rep, a, level, reduce=False)
            B = lp.evaluate(rep, b, level, reduce=False)
            # pad both into the higher of the two target levels
            target = max(len(A.target), len(B.target))

            def padded(M):
                out = M.entries
                lvl = round(np.log2(out.shape[0]))  # d = 2: dim V_n = 2^n
                while out.shape[0] < target:
                    out = rep.inclusion(lvl).toarray() @ out
                    lvl += 1
                return out

            assert np.abs(padded(A) - padded(B)).max() < 1e-10


def test_word_range_disjointness():
    rep = lp.sequence_rep(2, 3.0)
    for n in (1, 2, 3):
        supports = []
        for w in lp.words(2, n):
            M = lp.evaluate(rep, lp.monomial(K2, w, ()), 1)
            supports.append(set(np.nonzero(np.abs(M.entries).max(axis=1) > 0)[0]))
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_monotone_truncation():
    rng = np.random.default_rng(2)
    rep = lp.sequence_rep(2, 3.0)
    for _ in range(8):
        a = random_exact_element(rng, K2, max_terms=3, max_len=1)
        vals = [
            lp.power_estimate(lp.evaluate(rep, a, n), restarts=24, seed=5).estimate
            for n in range(a.t_depth(), a.t_depth() + 3)
        ]
        assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))


def test_degree_zero_exactness():
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 3.0):
        for ctor in (lp.interval_rep, lp.sequence_rep):
            rep = ctor(2, p)
            a = random_exact_element(rng, K2, max_terms=4, max_len=2, degree=0)
            a = lp.normal_form(a)
            m = a.t_depth()
            vals = [
                lp.power_estimate(lp.evaluate(rep, a, n), restarts=16, seed=7).estimate
                for n in range(m, m + 3)
            ]
            assert max(vals) - min(vals) < 1e-6


def test_row_isometry_identity():
    rng = np.random.default_rng(4)
    for p in (1.5, 3.0):
        rep = lp.interval_rep(2, p)
        sop = {j: rep.generator_operator("s", j, 2) for j in (1, 2)}
        for _ in range(20):
            xis = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            out = sum(sop[j].apply(xis[j - 1]) for j in (1, 2))
            lhs = lp.vector_norm(rep.space(3), out, p) ** p
            rhs = sum(lp.vector_norm(rep.space(2), xis[j - 1], p) ** p for j in (1, 2))
            assert lhs == pytest.approx(rhs, rel=1e-10)


# -- Fourier twist -----------------------------------------------------------------


def test_fourier_twist_norm_pair():
    seq = lp.sequence_rep(2, 3.0)
    tw = lp.fourier_twist(seq)
    lam = [1.0, 2.0]
    base = sum(complex(lam[j - 1]) * seq.s_matrix(j, 2).toarray() for j in (1, 2))
    twisted = sum(complex(lam[j - 1]) * tw.s_matrix(j, 2).toarray() for j in (1, 2))
    A = lp.OperatorMatrix(seq.space(2), seq.space(3), 3.0, base)
    B = lp.OperatorMatrix(seq.space(2), seq.space(3), 3.0, twisted)
    assert lp.power_estimate(A).estimate ** 3 == pytest.approx(9.0, abs=1e-8)
    assert lp.power_estimate(B).estimate ** 3 == pytest.approx(14.0, abs=1e-7)


def test_fourier_twist_p2_preserves_norms():
    seq = lp.sequence_rep(2, 2.0)
    tw = lp.fourier_twist(seq)
    rng = np.random.default_rng(5)
    for _ in range(10):
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = lp.twist_matrix(2, 2.0)
        assert lp.lp_norm(u @ lam, 2.0) == pytest.approx(lp.lp_norm(lam, 2.0), abs=1e-12)
        twisted = sum(complex(lam[j - 1]) * tw.s_matrix(j, 1).toarray() for j in (1, 2))
        A = lp.OperatorMatrix(seq.space(1), seq.space(2), 2.0, twisted)
        assert lp.power_estimate(A).estimate == pytest.approx(lp.lp_norm(lam, 2.0), abs=1e-10)


def test_fourier_twist_d3():
    seq = lp.sequence_rep(3, 1.5)
    tw = lp.fourier_twist(seq)
    assert lp.check_relations(tw, 2) < 1e-12


# -- direct sums, tensors, cyclic shifts ----------------------------------------------


def test_direct_sum_block_structure():
    seq = lp.sequence_rep(2, 3.0)
    ds = lp.direct_sum_p([seq, seq])
    a = lp.parse_element("s1*t2 + s2*t1", K2)
    M = lp.evaluate(ds, a, 2)
    S = lp.evaluate(seq, a, 2)
    n, m = S.entries.shape
    assert np.abs(M.entries[:n, :m] - S.entries).max() == 0
    assert np.abs(M.entries[n:, m:] - S.entries).max() == 0
    assert np.abs(M.entries[:n, m:]).max() == 0


def test_direct_sum_norm_is_max():
    seq = lp.sequence_rep(2, 3.0)
    half = lp.twist_by_invertible(seq, 0.5)
    ds = lp.direct_sum_p([seq, half])
    a = lp.gen_s(K2, 1)
    n1 = lp.power_estimate(lp.evaluate(seq, a, 2)).estimate
    n2 = lp.power_estimate(lp.evaluate(half, a, 2)).estimate
    nd = lp.power_estimate(lp.evaluate(ds, a, 2)).estimate
    assert nd == pytest.approx(max(n1, n2), abs=1e-8)


def test_direct_sum_of_spatial_is_spatial():
    seq = lp.sequence_rep(2, 3.0)
    intv = lp.interval_rep(2, 3.0)
    ds = lp.direct_sum_p([seq, intv])
    report = lp.spatiality_report(ds, depth=2, seed=0, samples=10)
    assert report["spatial"].value is True
    assert not report.violations


def test_tensor_identity():
    seq = lp.sequence_rep(2, 3.0)
    point = lp.FiniteMeasureSpace(["pt"], [1.0])
    same = lp.tensor_identity(seq, point)
    a = lp.parse_element("s1 + t1", K2)
    assert np.abs(
        lp.evaluate(same, a, 2).entries - lp.evaluate(seq, a, 2).entries
    ).max() == 0
    aux = lp.FiniteMeasureSpace(["u", "v", "w"], [1.0, 2.0, 0.5])
    bigger = lp.tensor_identity(seq, aux)
    assert lp.check_relations(bigger, 3) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(5):
        el = lp.normal_form(random_exact_element(rng, K2, degree=0))
        n1 = lp.power_estimate(lp.evaluate(seq, el, 2), restarts=16, seed=1).estimate
        n2 = lp.power_estimate(lp.evaluate(bigger, el, 2), restarts=16, seed=1).estimate
        assert n1 == pytest.approx(n2, abs=1e-6)
    with pytest.raises(ValueError):
        lp.tensor_identity(seq, lp.FiniteMeasureSpace([], []))


def test_free_rep_structure():
    seq = lp.sequence_rep(2, 3.0)
    one = lp.free_rep(seq, 1)
    a = lp.parse_element("s1*t1 + s2*t2", K2)
    assert np.abs(
        lp.evaluate(one, a, 2).entries - lp.evaluate(seq, a, 2).entries
    ).max() == 0
    fr = lp.free_rep(seq, 4)
    deg0 = lp.normal_form(lp.parse_element("s1*t2 + 2*s2*t1", K2))
    M = lp.evaluate(fr, deg0, 2)
    expected = np.kron(lp.evaluate(seq, deg0, 2).entries, np.eye(4))
    assert np.abs(M.entries - expected).max() < 1e-12
    # degree k acts as base tensor k-th shift power
    shift = np.roll(np.eye(4), 1, axis=0)
    s1 = lp.evaluate(fr, lp.gen_s(K2, 1), 2)
    expected = np.kron(lp.evaluate(seq, lp.gen_s(K2, 1), 2).entries, shift)
    assert np.abs(s1.entries - expected).max() < 1e-12
    with pytest.raises(ValueError):
        lp.free_rep(seq, 0)


def test_free_rep_norm_never_below_base():
    seq = lp.sequence_rep(2, 3.0)
    a = lp.parse_element("s1 + t1", K2)
    base = lp.power_estimate(lp.evaluate(seq, a, 3), seed=0).estimate
    for n in (2, 3, 5):
        fr = lp.free_rep(seq, n)
        val = lp.power_estimate(lp.evaluate(fr, a, 3), seed=0).estimate
        assert val >= base - 1e-8


# -- twists ------------------------------------------------------------------------


def test_twist_by_invertible_identity_and_scalar():
    seq = lp.sequence_rep(2, 3.0)
    ident = lp.twist_by_invertible(seq, 1.0)
    a = lp.parse_element("s1 + t2", K2)
    assert np.abs(
        lp.evaluate(ident, a, 2).entries - lp.evaluate(seq, a, 2).entries
    ).max() == 0
    half = lp.twist_by_invertible(seq, 0.5)
    assert lp.check_relations(half, 3) < 1e-12
    s1 = half.generator_operator("s", 1, 2)
    t1 = half.generator_operator("t", 1, 2)
    assert lp.power_estimate(s1).estimate == pytest.approx(0.5, abs=1e-10)
    assert lp.power_estimate(t1).estimate == pytest.approx(2.0, abs=1e-10)
    deg0 = lp.normal_form(lp.parse_element("s1*t2 + (0+1i)*s2*t2", K2))
    n1 = lp.power_estimate(lp.evaluate(seq, deg0, 2), restarts=16, seed=2).estimate
    n2 = lp.power_estimate(lp.evaluate(half, deg0, 2), restarts=16, seed=2).estimate
    assert n1 == pytest.approx(n2, abs=1e-8)
    with pytest.raises(ValueError):
        lp.twist_by_invertible(seq, 0.0)


def test_block_scalar_twist_sum_mult_flags():
    seq = lp.sequence_rep(2, 3.0)
    ds = lp.direct_sum_p([seq, seq])
    pi = block_scalar_twist(ds, [1.0, 0.5], [seq, seq])
    assert pi.u_condition == pytest.approx(2.0)
    for j in (1, 2):
        op = pi.generator_operator("s", j, 2)
        assert lp.power_estimate(op).estimate == pytest.approx(1.0, abs=1e-8)
    report = lp.spatiality_report(pi, depth=2, seed=0, samples=10)
    assert report["forward_isometric"].value is False
    assert report["contractive_on_generators"].value is False
    assert not report.violations


# -- duals --------------------------------------------------------------------------


def test_dual_rep_basics():
    seq = lp.sequence_rep(2, 3.0)
    du = lp.dual_rep(seq)
    assert du.p == pytest.approx(1.5)
    assert lp.check_relations(du, 3) < 1e-12
    assert np.abs(lp.evaluate(du, lp.unit(K2), 2).entries - np.eye(4)).max() == 0
    with pytest.raises(ValueError):
        lp.dual_rep(lp.sequence_rep(2, 1.0))


def test_dual_rep_p2_transpose():
    seq = lp.sequence_rep(2, 2.0)
    du = lp.dual_rep(seq)
    for j in (1, 2):
        s_dual = du.generator_operator("s", j, 1).entries
        t_base = seq.generator_operator("t", j, 2).entries
        assert np.abs(s_dual - t_base.T).max() < 1e-14


def test_dual_rep_norm_identity_homogeneous():
    rng = np.random.default_rng(8)
    seq = lp.sequence_rep(2, 3.0)
    du = lp.dual_rep(seq)
    for _ in range(6):
        deg = int(rng.integers(-2, 3))
        a = random_exact_element(rng, K2, max_terms=3, max_len=2, degree=deg)
        a = lp.normal_form(a)
        if a.is_zero():
            continue
        lvl = max(2, a.t_depth())
        n1 = lp.power_estimate(lp.evaluate(du, a, lvl), restarts=20, seed=3).estimate
        prime_a = lp.prime(a)
        lvl2 = lvl + deg
        n2 = lp.power_estimate(
            lp.evaluate(seq, prime_a, lvl2), restarts=20, seed=3
        ).estimate
        assert n1 == pytest.approx(n2, abs=1e-6)


# -- uniqueness and reconstruction -----------------------------------------------------


def test_t_images_reconstructed_from_s():
    for ctor in (lp.interval_rep, lp.sequence_rep):
        for p in (1.0, 1.5, 3.0):
            rep = ctor(2, p)
            assert lp.reconstruct_t_from_s(rep, 2) < 1e-12


def test_reconstruction_rejects_nonspatial():
    seq = lp.sequence_rep(2, 3.0)
    tw = lp.fourier_twist(seq)
    with pytest.raises(ValueError):
        lp.reconstruct_t_from_s(tw, 2)


# -- spatiality reports ------------------------------------------------------------------


def test_reports_match_expected_classes():
    intv = lp.interval_rep(2, 3.0)
    rep = lp.spatiality_report(intv, depth=2, seed=0, samples=20)
    assert all(
        rep[name].value is True
        for name in (
            "contractive_on_generators",
            "forward_isometric",
            "strongly_forward_isometric",
            "disjoint",
            "spatial",
            "p_standard_s",
            "p_standard_t",
            "row_isometry",
            "md_restriction_spatial",
        )
    )
    assert not rep.violations

    tw = lp.spatiality_report(lp.fourier_twist(intv), depth=2, seed=0, samples=20)
    assert tw["contractive_on_generators"].value is True
    assert tw["strongly_forward_isometric"].value is True
    assert tw["disjoint"].value is False
    assert tw["spatial"].value is False
    assert not tw.violations

    ds = lp.direct_sum_p([intv, lp.fourier_twist(intv)])
    mixed = lp.spatiality_report(ds, depth=2, seed=0, samples=20)
    assert mixed["forward_isometric"].value is True
    assert mixed["strongly_forward_isometric"].value is False
    assert mixed["strongly_forward_isometric"].witness
    assert not mixed.violations


def test_report_p2_uses_constructor_systems():
    seq = lp.sequence_rep(2, 2.0)
    rep = lp.spatiality_report(seq, depth=2, seed=0, samples=10)
    assert rep["spatial"].value is True
    assert "p = 2" in rep["spatial"].note
    tw = lp.spatiality_report(lp.fourier_twist(seq), depth=2, seed=0, samples=10)
    assert tw["spatial"].value is None  # no systems to fall back on
    assert "not decidable" in tw["spatial"].note


# -- the embedding pairing ---------------------------------------------------------------


def test_embedding_pairing_symbolic_and_operator():
    # psi(s_j) = s_2^j s_1 and psi(t_j) = t_1 t_2^j pair like the
    # generators of the infinite algebra: t-psi(gamma) s-psi(lambda)
    # is the scalar sum_j gamma_j lambda_j
    rng = np.random.default_rng(9)
    rep = lp.sequence_rep(2, 3.0)

    def s_embedded(j):
        return lp.monomial(K2, tuple([2] * j + [1]), ())

    def t_embedded(j):
        return lp.monomial(K2, (), tuple([2] * j + [1]))

    for j in (1, 2, 3):
        for m in (1, 2, 3):
            prod = lp.mul(t_embedded(j), s_embedded(m))
            assert prod == (lp.unit(K2) if j == m else lp.zero(K2))

    gam = [qc(z) for z in rng.standard_normal(3) + 1j * rng.standard_normal(3)]
    lam = [qc(z) for z in rng.standard_normal(3) + 1j * rng.standard_normal(3)]
    t_el = sum((t_embedded(j).scale(g) for j, g in zip((1, 2, 3), gam)), lp.zero(K2))
    s_el = sum((s_embedded(j).scale(l) for j, l in zip((1, 2, 3), lam)), lp.zero(K2))
    T = lp.evaluate(rep, t_el, 6)  # V_6 -> V_4
    S = lp.evaluate(rep, s_el, 2)  # V_2 -> V_6
    pair = T.entries @ S.entries
    coef = sum((g * l).to_complex() for g, l in zip(gam, lam))
    incl = (rep.inclusion(3) @ rep.inclusion(2)).toarray()
    assert np.abs(pair - coef * incl).max() < 1e-10


def loop_column_ratios(A):
    """Reference: the norm ratio of each basis vector, one column at a time."""
    out = []
    for i in range(len(A.source)):
        e = np.zeros(len(A.source))
        e[i] = 1.0
        out.append(lp.vector_norm(A.target, A.entries @ e, A.p) / lp.vector_norm(A.source, e, A.p))
    return np.array(out)


def loop_disjoint_columns(A):
    abs_e = np.abs(A.entries)
    cut = 1e-12 * max(1.0, float(abs_e.max(initial=0.0)))
    seen = set()
    for col in range(abs_e.shape[1]):
        rows = set(np.nonzero(abs_e[:, col] > cut)[0])
        if rows & seen:
            return False
        seen |= rows
    return True


def test_column_tests_match_loop_reference():
    from lpcuntz.reps import _column_ratios, _is_isometry_matrix

    rng = np.random.default_rng(12)
    reps = [
        lp.interval_rep(2, 3.0),
        lp.fourier_twist(lp.interval_rep(2, 3.0)),
        lp.free_rep(lp.sequence_rep(2, 1.5), 3),
        lp.direct_sum_p([lp.sequence_rep(2, 3.0), lp.interval_rep(2, 3.0)]),
    ]
    seen = set()
    for rep in reps:
        s1, s2 = (rep.generator_operator("s", j, 3) for j in (1, 2))
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        combo = lam[0] * s1.kernel + lam[1] * s2.kernel
        for kernel in (s1.kernel, combo, combo.toarray()):
            A = lp.OperatorMatrix(s1.source, s1.target, rep.p, kernel)
            ratios = _column_ratios(A)
            assert np.abs(ratios - loop_column_ratios(A)).max() <= 1e-12
            expected = loop_disjoint_columns(A) and np.abs(ratios - 1.0).max() <= 1e-8
            assert _is_isometry_matrix(A, 1e-8) == expected
            seen.add(expected)
    assert seen == {True, False}
    # unit columns sharing a row are not an isometry, whatever the ratios
    space = lp.FiniteMeasureSpace(range(2), [1.0, 1.0])
    for kernel in ([[1.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]):
        for held in (np.array(kernel), sparse.csr_matrix(kernel)):
            A = lp.OperatorMatrix(space, space, 3.0, held)
            assert _is_isometry_matrix(A, 1e-8) == loop_disjoint_columns(A)
