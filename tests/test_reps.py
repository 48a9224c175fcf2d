"""Graded representations: constructors, evaluation, derived
representations, and the spatiality report."""

import cmath

import numpy as np
import pytest
from scipy import sparse

import lpcuntz as lp
from lpcuntz.leavitt import QC
from lpcuntz.reps import _isometry_scale, _reverse_law_gap

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


class ClosedFormRep:
    """Reference generator matrices written out index by index: the s_j,
    t_j and inclusions of the two base models, and the derived models
    as Kronecker products, block sums and Fourier sums of them."""

    def __init__(self, s_matrix, t_matrix, inclusion):
        self.s_matrix, self.t_matrix, self.inclusion = s_matrix, t_matrix, inclusion


def _csr(value, rows, cols, shape):
    return sparse.csr_matrix(
        (np.full(len(rows), value, dtype=complex), (rows, cols)), shape=shape
    )


def closed_form_interval(d, p):
    root = d ** (1.0 / p)

    def s(j, level):
        n = d**level
        return _csr(root, (j - 1) * n + np.arange(n), np.arange(n), (d * n, n))

    def t(j, level):
        m = d ** (level - 1)
        return _csr(1.0 / root, np.arange(m), (j - 1) * m + np.arange(m), (m, d * m))

    def incl(level):
        n = d**level
        return _csr(1.0, np.arange(d * n), np.repeat(np.arange(n), d), (d * n, n))

    return ClosedFormRep(s, t, incl)


def closed_form_sequence(d):
    def s(j, level):
        n = d**level
        ns = np.arange(1, n + 1)
        return _csr(1.0, d * (ns - 1) + j - 1, np.arange(n), (d * n, n))

    def t(j, level):
        n = d**level
        ns = np.arange(1, n + 1)
        src = ns[(ns - j) % d == 0]
        return _csr(1.0, (src - j) // d, src - 1, (n // d, n))

    def incl(level):
        n = d**level
        return _csr(1.0, np.arange(n), np.arange(n), (d * n, n))

    return ClosedFormRep(s, t, incl)


def closed_form_kron(ref, s_factor, t_factor, n_aux):
    eye = sparse.identity(n_aux, dtype=complex, format="csr")
    return ClosedFormRep(
        lambda j, level: sparse.kron(ref.s_matrix(j, level), s_factor, format="csr"),
        lambda j, level: sparse.kron(ref.t_matrix(j, level), t_factor, format="csr"),
        lambda level: sparse.kron(ref.inclusion(level), eye, format="csr"),
    )


def closed_form_fourier(ref, d, p):
    def root(n):  # exp(2 pi i n / d), exact where it is one of 1, i, -1, -i
        if 4 * n % d == 0:
            return {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: 0 - 1j}[4 * n // d % 4]
        return cmath.exp(2j * cmath.pi / d) ** n

    cs, ct = d ** (-1.0 / p), d ** (-1.0 / lp.conjugate_exponent(p))
    return ClosedFormRep(
        lambda k, level: cs * sum(
            root(j * k) * ref.s_matrix(j, level) for j in range(1, d + 1)
        ),
        lambda k, level: ct * sum(
            root(-j * k) * ref.t_matrix(j, level) for j in range(1, d + 1)
        ),
        ref.inclusion,
    )


def closed_form_sum(refs):
    def block(get):
        return lambda *key: sparse.block_diag([get(r)(*key) for r in refs], format="csr")

    return ClosedFormRep(
        block(lambda r: r.s_matrix), block(lambda r: r.t_matrix), block(lambda r: r.inclusion)
    )


def assert_same_csr(got, ref):
    assert got.format == ref.format == "csr"
    assert got.dtype == ref.dtype == np.complex128
    assert got.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part


def assert_same_generators(rep, ref, d, levels):
    for level in levels:
        assert_same_csr(rep.inclusion(level), ref.inclusion(level))
        for j in range(1, d + 1):
            assert_same_csr(rep.s_matrix(j, level), ref.s_matrix(j, level))
            if level >= 1:
                assert_same_csr(rep.t_matrix(j, level), ref.t_matrix(j, level))


def test_base_generators_equal_closed_forms():
    for d in (2, 3):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert_same_generators(
                lp.interval_rep(d, p), closed_form_interval(d, p), d, range(7)
            )
            assert_same_generators(
                lp.sequence_rep(d, p), closed_form_sequence(d), d, range(7)
            )


def test_derived_generators_equal_closed_forms():
    for d in (2, 3):
        for p in (1.5, 3.0):
            n = 3
            shift = _csr(1.0, (np.arange(n) + 1) % n, np.arange(n), (n, n))
            assert_same_generators(
                lp.free_rep(lp.sequence_rep(d, p), n),
                closed_form_kron(closed_form_sequence(d), shift, shift.T.tocsr(), n),
                d,
                range(5),
            )
            eye = sparse.identity(2, dtype=complex, format="csr")
            aux = lp.FiniteMeasureSpace(["u", "v"], [1.0, 2.0])
            assert_same_generators(
                lp.tensor_identity(lp.interval_rep(d, p), aux),
                closed_form_kron(closed_form_interval(d, p), eye, eye, 2),
                d,
                range(5),
            )
            intv = closed_form_interval(d, p)
            assert_same_generators(
                lp.direct_sum_p(
                    [lp.interval_rep(d, p), lp.fourier_twist(lp.interval_rep(d, p))]
                ),
                closed_form_sum([intv, closed_form_fourier(intv, d, p)]),
                d,
                range(5),
            )


@pytest.mark.parametrize("n", [4, 32, 1024])
def test_phased_permutation_matches_coo_build(n):
    from lpcuntz.reps import _phased_permutation

    rng = np.random.default_rng(n)
    rows, cols = rng.permutation(2 * n)[:n], rng.permutation(n)
    got = _phased_permutation(0.5 - 1j, rows, cols, (2 * n, n))
    want = _csr(0.5 - 1j, rows, cols, (2 * n, n))
    assert type(got) is type(want) and got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_fourier_twist_is_exact_at_quarter_turns():
    # w = -1 at d = 2 and w = i at d = 4, exactly: the d = 2 twist of a
    # real model stays real, and an evaluated element stores no residue
    # of an entry that cancels
    for p in (1.5, 3.0):
        rep = lp.fourier_twist(lp.sequence_rep(2, p))
        for j in (1, 2):
            assert not np.any(rep.s_matrix(j, 3).data.imag)
            assert not np.any(rep.t_matrix(j, 3).data.imag)
        kernel = lp.evaluate(rep, lp.parse_element("s1*t2 + s2*t1 + t1*t2", K2), 3).kernel
        assert kernel.nnz == 15 and np.all(np.abs(kernel.data) > 0.1)
        for d in (2, 4):
            u = lp.twist_matrix(d, p)
            assert np.all((u.real == 0) | (u.imag == 0))
            assert np.all(np.abs(u) == d ** (-1.0 / p))


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


@pytest.mark.parametrize("depth", [0, -3])
def test_spatiality_report_rejects_levels_below_one(depth):
    # a report never decides a level other than the one it names
    with pytest.raises(ValueError, match=f"got {depth}"):
        lp.spatiality_report(lp.sequence_rep(2, 3.0), depth=depth, samples=2)


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

    def u_of(level):
        # the diagonal 1 (+) 1/2 on V_level (+) V_level twists s_j to s_j (+) (1/2) s_j
        size = len(seq.space(level))
        return np.diag(np.repeat(np.array([1.0, 0.5], dtype=complex), size))

    pi = lp.twist_by_invertible(ds, u_of)
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


def reverse_law_gaps(rep, level):
    """Each t_j against the reverse of the system that the detector
    recovers from s_j on V_level; None where s_j is no spatial isometry."""
    return [
        _reverse_law_gap(rep, rep.generator_operator("s", j, level), j, level)
        for j in rep.generators
    ]


def assert_t_images_reconstructed(rep, level=2):
    for gap in reverse_law_gaps(rep, level):
        assert gap is not None and gap < 1e-12


def test_t_images_reconstructed_from_s():
    for ctor in (lp.interval_rep, lp.sequence_rep):
        for p in (1.0, 1.5, 3.0):
            assert_t_images_reconstructed(ctor(2, p))


def test_t_images_reconstructed_from_s_on_derived_reps():
    intv = lp.interval_rep(2, 3.0)
    seq = lp.sequence_rep(2, 3.0)
    derived = [
        lp.direct_sum_p([seq, intv]),
        lp.tensor_identity(seq, lp.FiniteMeasureSpace(["u", "v"], [1.0, 2.0])),
        lp.free_rep(seq, 3),
        lp.dual_rep(intv),
    ]
    for rep in derived:
        assert_t_images_reconstructed(rep)


def test_reconstruction_rejects_nonspatial():
    tw = lp.fourier_twist(lp.sequence_rep(2, 3.0))
    assert reverse_law_gaps(tw, 2)[0] is None  # s_1 is no spatial isometry


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


def test_report_p2_uses_detector_and_reverse_law():
    seq = lp.sequence_rep(2, 2.0)
    rep = lp.spatiality_report(seq, depth=2, seed=0, samples=10)
    assert rep["spatial"].value is True
    assert "p = 2" in rep["spatial"].note
    tw = lp.spatiality_report(lp.fourier_twist(seq), depth=2, seed=0, samples=10)
    assert tw["spatial"].value is None  # a rejection proves nothing at p = 2
    assert "not decidable" in tw["spatial"].note


def test_spatial_needs_full_domain():
    # s_1 loses its first column and t_1 the matching row: s_1 stays a
    # spatial partial isometry whose reverse is t_1, but not an isometry
    seq = lp.sequence_rep(2, 3.0)

    def s_fn(j, level):
        m = seq.s_matrix(j, level).tolil()
        if j == 1:
            m[:, 0] = 0
        return m.tocsr()

    def t_fn(j, level):
        m = seq.t_matrix(j, level).tolil()
        if j == 1:
            m[0, :] = 0
        return m.tocsr()

    partial = lp.GradedRep(seq.kind, 3.0, seq.space, s_fn, t_fn, seq.inclusion, "partial")
    cond = lp.spatiality_report(partial, depth=2, seed=0, samples=5)["spatial"]
    assert cond.value is False
    assert cond.witness == {"generator": "s_1", "reason": "not a spatial isometry"}
    assert reverse_law_gaps(partial, 2)[0] is None


def test_contractivity_witness_names_first_generator_on_ties():
    # every generator norm is 1 up to rounding: s_1 is named
    intv = lp.interval_rep(2, 3.0)
    for rep in (
        intv,
        lp.sequence_rep(3, 1.5),
        lp.fourier_twist(intv),
        lp.dual_rep(intv),
        lp.free_rep(lp.sequence_rep(2, 3.0), 3),
    ):
        for depth in (2, 4):
            cond = lp.spatiality_report(rep, depth=depth, seed=1, samples=4)[
                "contractive_on_generators"
            ]
            assert cond.value is True
            assert cond.witness["generator"] == "s_1"
            assert cond.witness["norm"] == pytest.approx(1.0, abs=1e-12)
    # a strictly largest norm is named whatever its place: s_2 = 2 x
    # the sequence s_2 and t_2 = its half keep every relation
    seq = lp.sequence_rep(2, 3.0)
    scale = {1: 1.0, 2: 2.0}
    scaled = lp.GradedRep(
        seq.kind, 3.0, seq.space,
        lambda j, level: scale[j] * seq.s_matrix(j, level),
        lambda j, level: seq.t_matrix(j, level) / scale[j],
        seq.inclusion, "scaled",
    )
    cond = lp.spatiality_report(scaled, depth=2, seed=1, samples=4)["contractive_on_generators"]
    assert cond.value is False
    assert cond.witness == {"generator": "s_2", "norm": pytest.approx(2.0, rel=1e-14)}


def _hand_built_reps():
    """Sequence-model variants that reach report branches no descriptor
    reaches, each with its non-true conditions {name: (value, witness)}
    and its audit violations."""
    seq = lp.sequence_rep(2, 3.0)
    scale = {1: 1.0, 2: 2.0}
    scaled = lp.GradedRep(
        seq.kind, 3.0, seq.space,
        lambda j, level: scale[j] * seq.s_matrix(j, level),
        lambda j, level: seq.t_matrix(j, level) / scale[j],
        seq.inclusion, "scaled",
    )
    t1_doubled = lp.GradedRep(
        seq.kind, 3.0, seq.space, seq.s_matrix,
        lambda j, level: (2.0 if j == 1 else 1.0) * seq.t_matrix(j, level),
        seq.inclusion, "t1-doubled",
    )
    # a Cohn-kind rep with s_2 := s_1 and t_2 := t_1: t_j s_k = 1 for all
    # j, k breaks no relation the report checks, yet the ranges coincide
    collapsed = lp.GradedRep(
        lp.cohn(2), 3.0, seq.space,
        lambda j, level: seq.s_matrix(1, level),
        lambda j, level: seq.t_matrix(1, level),
        seq.inclusion, "collapsed",
    )
    approx = pytest.approx
    return {
        "scaled": (scaled, {
            "contractive_on_generators": (False, {"generator": "s_2", "norm": approx(2.0)}),
            "forward_isometric": (False, {"generator": "s_2"}),
            "strongly_forward_isometric": (False, {"generator": "s_2"}),
            "spatial": (False, {"generator": "s_2", "reason": "not a spatial isometry"}),
            "p_standard_s": (
                False, {"lambda": ["0.0", "1.0"], "norm": approx(2.0), "expected": approx(1.0)}
            ),
            "p_standard_t": (
                False, {"gamma": ["0.0", "1.0"], "norm": approx(0.5), "expected": approx(1.0)}
            ),
            "row_isometry": (
                False, {"lhs": approx(41.27632073627039), "rhs": approx(9.112525929884285)}
            ),
            "md_restriction_spatial": (False, {"unit": "e_21", "norm": approx(2.0)}),
        }, ()),
        "t1-doubled": (t1_doubled, {
            "contractive_on_generators": (False, {"generator": "t_1", "norm": approx(2.0)}),
            "spatial": (False, {"generator": "t_1", "reason": "reverse law fails"}),
            "p_standard_t": (
                False, {"gamma": ["1.0", "0.0"], "norm": approx(2.0), "expected": approx(1.0)}
            ),
            "md_restriction_spatial": (
                False, {"unit": "e_11", "reason": "diagonal entry not 0 or 1"}
            ),
        }, ()),
        "collapsed": (collapsed, {
            "disjoint": (False, {"generators": ["s_1", "s_2"], "coordinate": "0"}),
            "p_standard_s": (False, {
                "lambda": ["(1+0j)", "(2+0j)"], "norm": approx(3.0),
                "expected": approx(2.080083823051904),
            }),
            "p_standard_t": (False, {
                "gamma": ["(1+0j)", "(2+0j)"], "norm": approx(3.0),
                "expected": approx(2.4472608147714756),
            }),
            "row_isometry": (
                False, {"lhs": approx(13.18491317036074), "rhs": approx(9.112525929884285)}
            ),
            "md_restriction_spatial": (
                False, {"reason": "diagonal supports do not partition the space"}
            ),
        }, tuple(
            f"spatial does not imply {name}"
            for name in (
                "disjoint", "p_standard_s", "p_standard_t", "row_isometry",
                "md_restriction_spatial",
            )
        )),
    }


@pytest.mark.parametrize("name", list(_hand_built_reps()))
def test_report_branches_on_hand_built_reps(name):
    rep, expected, violations = _hand_built_reps()[name]
    report = lp.spatiality_report(rep, depth=2, seed=0, samples=4)
    failing = {
        key: (cond.value, cond.witness)
        for key, cond in report.conditions.items()
        if cond.value is not True
    }
    assert failing == expected
    assert report.violations == violations


@pytest.mark.parametrize(
    "make_rep, calls",
    [
        (lambda: lp.interval_rep(2, 3.0), 8),
        (lambda: lp.sequence_rep(3, 3.0), 15),
        (lambda: lp.fourier_twist(lp.interval_rep(2, 3.0)), 0),
    ],
    ids=["interval", "sequence-d3", "fourier-interval"],
)
def test_report_norm_estimates_are_not_repeated(monkeypatch, make_rep, calls):
    # the generator norms are the report's norms at lambda = e_j, so
    # contractivity costs no estimate of its own; and power_estimate runs
    # only where the stacked exact witnesses do not reach: at each e_j of
    # the untwisted models, which drops the other generators' entries
    # (2d calls), and on the d^2 matrix units when md_restriction gets to
    # them (not on fourier-interval, whose diagonal units are rejected)
    import lpcuntz.pnorm

    rep = make_rep()
    seen = []
    estimate = lpcuntz.pnorm.power_estimate

    def counted(*args, **kwargs):
        seen.append(args[0])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(lpcuntz.pnorm, "power_estimate", counted)
    lp.spatiality_report(rep, depth=2, seed=0, samples=4)
    assert len(seen) == calls


def _summed(ops, lam):
    """The per-lambda reference: scipy's sum of lambda_j times the
    generator kernels, as an operator."""
    first = ops[1]
    kernel = sum(complex(lam[j - 1]) * op.kernel for j, op in ops.items())
    return lp.OperatorMatrix(first.source, first.target, first.p, kernel)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "descriptor, d",
    [("interval", 2), ("sequence", 3), ("free:sequence:4", 2), ("fourier:interval", 2),
     ("sum:interval+fourier:interval", 2)],
)
def test_stacked_combinations_match_per_lambda_sums(descriptor, d, p):
    from lpcuntz.cli import rep_from_descriptor
    from lpcuntz.pnorm import _finish, _rank_one_sum_witness
    from lpcuntz.reps import _Combinations
    from lpcuntz.spatial import unweighted_kernel

    rep = rep_from_descriptor(descriptor, d, p)
    rng = np.random.default_rng(11)
    lams = [*np.eye(d), np.arange(1, d + 1).astype(complex)]
    lams += [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(4)]
    s1, s2 = (rep.generator_operator("s", j, 2).entries for j in (1, 2))
    shared = np.argwhere((s1 != 0) & (s2 != 0))
    if shared.size:  # the twisted models: a vector that cancels entries exactly
        a, b = s1[tuple(shared[0])], s2[tuple(shared[0])]
        lams.append(np.array([b, -a]))
    batched = set()
    for fam in "st":
        ops = {j: rep.generator_operator(fam, j, 2) for j in rep.generators}
        combos = _Combinations(ops, lams)
        witnesses = combos.exact_witnesses()
        norms = combos.exact_norms()
        assert norms.keys() == witnesses.keys()
        scales = _isometry_scale(combos.union, 1e-8, combos.data)
        for i, lam in enumerate(lams):
            A, op = _summed(ops, lam), combos.operator(i)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op.kernel, part), getattr(A.kernel, part))
            assert scales[i] == _isometry_scale(A, 1e-8)[0]
            if i in witnesses:
                (alone,) = _rank_one_sum_witness(unweighted_kernel(A), p)
                assert np.array_equal(witnesses[i], alone)
                exact = _finish(op, witnesses[i], "exact-rank-one-sum", 0, True)
                assert exact.estimate == lp.power_estimate(A, restarts=8).estimate
                assert norms[i] == exact.estimate
                batched.add((fam, i))
        # the kernels that drop an entry of the union pattern are left to
        # power_estimate, and at p = 1 all of them are
        dropped = set(range(len(lams))) - set(combos.full)
        assert not witnesses.keys() & dropped
        assert not (p == 1.0 and witnesses)
        if fam == "s":  # e_j on the untwisted models, the cancelling vector
            assert dropped == set(range(d)) if not shared.size else len(lams) - 1 in dropped
    assert p == 1.0 or len(batched) >= len(lams)


def _p2_reps():
    intv = lp.interval_rep(2, 2.0)
    seq = lp.sequence_rep(2, 2.0)
    return {
        "interval": (intv, True),
        "sequence-d3": (lp.sequence_rep(3, 2.0), True),
        "dual": (lp.dual_rep(intv), True),
        "tensor": (lp.tensor_identity(seq, lp.FiniteMeasureSpace(["u", "v"], [1.0, 2.0])), True),
        "free": (lp.free_rep(seq, 3), True),
        "sum": (lp.direct_sum_p([seq, intv]), True),
        "fourier": (lp.fourier_twist(seq), None),
        "sum-with-fourier": (lp.direct_sum_p([intv, lp.fourier_twist(seq)]), None),
    }


@pytest.mark.parametrize("name", list(_p2_reps()))
def test_report_p2_spatial_condition(name):
    rep, expected = _p2_reps()[name]
    cond = lp.spatiality_report(rep, depth=2, seed=0, samples=5)["spatial"]
    assert cond.value is expected
    if expected:
        assert cond.note == "p = 2: detector + reverse law"
    else:
        assert cond.note == "not decidable by detector at p = 2" and cond.witness == {}


def test_report_p2_unimodular_twist_is_spatial():
    tw = lp.twist_by_invertible(lp.sequence_rep(2, 2.0), 1j)
    cond = lp.spatiality_report(tw, depth=2, seed=0, samples=5)["spatial"]
    assert cond.value is True
    assert_t_images_reconstructed(tw)


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
        # unequal column ratios: not a multiple of an isometry
        skewed = combo @ sparse.diags_array(np.linspace(1.0, 2.0, combo.shape[1]))
        for kernel in (s1.kernel, combo, combo.toarray(), skewed):
            A = lp.OperatorMatrix(s1.source, s1.target, rep.p, kernel)
            ratios = loop_column_ratios(A)
            c = ratios.max()
            scaled = np.abs(ratios - c).max() <= 1e-8 * c and loop_disjoint_columns(A)
            scale = _isometry_scale(A, 1e-8)[0]
            assert (scale is not None) == scaled
            if scaled:
                assert scale == pytest.approx(c, rel=1e-12, abs=0)
            seen.add((scaled, scaled and abs(c - 1.0) <= 1e-8))
    assert seen == {(True, True), (True, False), (False, False)}
    # unit columns sharing a row are not an isometry, whatever the ratios
    space = lp.FiniteMeasureSpace(range(2), [1.0, 1.0])
    for kernel in ([[1.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]):
        for held in (np.array(kernel), sparse.csr_matrix(kernel)):
            A = lp.OperatorMatrix(space, space, 3.0, held)
            assert _isometry_scale(A, 1e-8)[0] == (1.0 if loop_disjoint_columns(A) else None)
    # p = 2: the weighted Gram identity, which a rotation satisfies
    c = 2.0 ** -0.5
    for kernel, expected in (([[c, -c], [c, c]], True), ([[1.0, 1.0], [0.0, 0.0]], False)):
        for held in (np.array(kernel), sparse.csr_matrix(kernel)):
            scale = _isometry_scale(lp.OperatorMatrix(space, space, 2.0, held), 1e-8)[0]
            assert (scale is not None) == expected
    s1 = lp.interval_rep(2, 2.0).generator_operator("s", 1, 3)
    assert _isometry_scale(s1, 1e-8)[0] == pytest.approx(1.0, rel=1e-12)
    scaled = lp.OperatorMatrix(s1.source, s1.target, 2.0, 1.5 * s1.kernel)
    assert _isometry_scale(scaled, 1e-8)[0] == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("p", [160.0, 1000.0, 5000.0])
def test_isometry_scale_does_not_overflow_at_large_p(p):
    # 100^p overflows a double from p = 155 on
    space = lp.FiniteMeasureSpace(range(2), [1.0, 1.0])
    unequal = lp.OperatorMatrix(space, space, p, np.diag([100.0, 50.0]))
    assert _isometry_scale(unequal, 1e-8)[0] is None
    equal = lp.OperatorMatrix(space, space, p, np.diag([100.0, 100.0]))
    assert _isometry_scale(equal, 1e-8)[0] == pytest.approx(100.0, rel=1e-12, abs=0)


def dense_pairing_adjoint(A):
    """Reference: the dense formula (A^T * nu) / mu, entrywise."""
    return (A.entries.T * A.target.weights[None, :]) / A.source.weights[:, None]


def sparse_pairing_adjoint(mat, source_weights, target_weights):
    """Reference: D_src^-1 M^T D_tgt as a product of sparse matrices."""
    m = mat.T.tocsr().astype(complex)
    left = sparse.diags(1.0 / source_weights)
    right = sparse.diags(target_weights)
    return (left @ m @ right).tocsr()


def assert_close_rel(X, Y, rel):
    X = X.toarray() if sparse.issparse(X) else X
    Y = Y.toarray() if sparse.issparse(Y) else Y
    assert X.shape == Y.shape
    assert np.abs(X - Y).max(initial=0.0) <= rel * np.abs(Y).max(initial=0.0)


def test_pairing_adjoint_matches_reference_formulas():
    rng = np.random.default_rng(31)
    for p in (1.5, 3.0):
        for _ in range(5):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            K = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * (
                rng.uniform(size=(m, n)) < 0.5
            )
            src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.1, 3.0, n))
            tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.1, 3.0, m))
            A = lp.OperatorMatrix(src, tgt, p, K)
            adj = lp.pairing_adjoint(A)
            assert (adj.source, adj.target, adj.p) == (tgt, src, p / (p - 1.0))
            assert_close_rel(adj.kernel, dense_pairing_adjoint(A), 1e-15)
            assert_close_rel(adj.kernel, sparse_pairing_adjoint(A.kernel, src.weights, tgt.weights), 1e-15)
        bases = [
            lp.interval_rep(2, p),
            lp.sequence_rep(3, p),
            lp.fourier_twist(lp.sequence_rep(2, p)),
            lp.direct_sum_p([lp.interval_rep(2, p), lp.sequence_rep(2, p)]),
        ]
        for rep in bases:
            du = lp.dual_rep(rep)
            for level in (1, 2, 3):
                for j in rep.generators:
                    t_up = rep.generator_operator("t", j, level + 1)
                    s_down = rep.generator_operator("s", j, level - 1)
                    assert_close_rel(du.s_matrix(j, level), dense_pairing_adjoint(t_up), 1e-15)
                    assert_close_rel(du.t_matrix(j, level), dense_pairing_adjoint(s_down), 1e-15)
                    assert_close_rel(
                        du.s_matrix(j, level),
                        sparse_pairing_adjoint(
                            rep.t_matrix(j, level + 1),
                            rep.space(level + 1).weights,
                            rep.space(level).weights,
                        ),
                        1e-15,
                    )
                    assert_close_rel(
                        du.t_matrix(j, level),
                        sparse_pairing_adjoint(
                            rep.s_matrix(j, level - 1),
                            rep.space(level - 1).weights,
                            rep.space(level).weights,
                        ),
                        1e-15,
                    )


def loop_evaluate(rep, a, level, reduce=True):
    """Reference: one chain of sparse matmuls per monomial, from the identity."""
    if reduce:
        a = lp.normal_form(a)
    k_max = max((len(al) - len(be) for (al, be) in a.terms), default=0)
    n_in = len(rep.space(level))
    total = sparse.csr_matrix((len(rep.space(level + k_max)), n_in), dtype=complex)
    for (alpha, beta), coeff in a.terms.items():
        mat = sparse.identity(n_in, dtype=complex, format="csr")
        cur = level
        for letter in beta:
            mat = rep.t_matrix(letter, cur) @ mat
            cur -= 1
        for letter in reversed(alpha):
            mat = rep.s_matrix(letter, cur) @ mat
            cur += 1
        while cur < level + k_max:
            mat = rep.inclusion(cur) @ mat
            cur += 1
        total = total + coeff.to_complex() * mat
    return total.toarray()


def test_evaluate_matches_loop_reference():
    rng = np.random.default_rng(6)
    reps = [
        lp.interval_rep(2, 3.0),
        lp.sequence_rep(2, 3.0),
        lp.fourier_twist(lp.sequence_rep(2, 3.0)),
        lp.dual_rep(lp.interval_rep(2, 3.0)),
        lp.free_rep(lp.sequence_rep(2, 1.5), 3),
        lp.direct_sum_p([lp.interval_rep(2, 3.0), lp.fourier_twist(lp.sequence_rep(2, 3.0))]),
    ]
    # many terms per l(beta) group, and the same element with a unit term
    units = lp.matrix_unit_embed(K2, 2, rng.integers(-2, 3, size=(4, 4)).tolist())
    for rep in reps:
        elements = [lp.zero(K2), units, units + lp.unit(K2)]
        elements += [random_exact_element(rng, K2, max_terms=8, max_len=3) for _ in range(6)]
        for a in elements:
            for reduce in (True, False):
                depth = (lp.normal_form(a) if reduce else a).t_depth()
                for level in (depth, depth + 1):
                    M = lp.evaluate(rep, a, level, reduce=reduce)
                    ref = loop_evaluate(rep, a, level, reduce=reduce)
                    assert sparse.issparse(M.kernel) and M.kernel.shape == ref.shape
                    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
                    assert np.abs(M.kernel.toarray() - ref).max(initial=0.0) <= 1e-12 * scale
