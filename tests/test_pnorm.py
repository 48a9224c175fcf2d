"""Operator p-norm estimation: exact cases, the Boyd iteration, the
sampling oracle, and their agreement."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

import lpcuntz as lp
from lpcuntz.pnorm import BOYD_AITKEN_PERIOD


def plain_space(n):
    return lp.FiniteMeasureSpace(range(n), [1.0] * n)


def op(entries, p, source=None, target=None):
    entries = np.asarray(entries, dtype=complex)
    source = source or plain_space(entries.shape[1])
    target = target or plain_space(entries.shape[0])
    return lp.OperatorMatrix(source, target, p, entries)


def test_identity_norm_any_weights():
    rng = np.random.default_rng(0)
    for p in (1.0, 1.5, 2.0, 3.0):
        n = 5
        space = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 3.0, n))
        A = lp.OperatorMatrix(space, space, p, np.eye(n))
        assert lp.power_estimate(A, seed=1).estimate == pytest.approx(1.0, abs=1e-10)


def test_diagonal_norm():
    for p in (1.0, 1.7, 2.0, 4.0):
        A = op(np.diag([0.5, -2.0, 1.5]), p)
        assert lp.power_estimate(A, seed=0).estimate == pytest.approx(2.0, abs=1e-9)


def test_rank_one_norm():
    # ||a|| = ||mu||_p ||eta||_q for a(xi) = <eta, xi> mu
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1)
        mu = np.array([1.0, 1.0])
        eta = np.array([1.0, 1.0])
        A = op(np.outer(mu, eta), p)
        expected = lp.rank_one_exact(mu, eta, p)
        assert expected == pytest.approx(2 ** (1 / p) * 2 ** (1 / q), abs=1e-12)
        assert lp.power_estimate(A, seed=2).estimate == pytest.approx(expected, abs=1e-8)
        assert lp.oracle_grid(A, seed=3).estimate == pytest.approx(expected, abs=1e-6)


def test_rank_one_exact_cases():
    assert lp.rank_one_exact([1, 1], [1, 1], 3.0) == pytest.approx(2.0)
    assert lp.rank_one_exact([1, 0], [1, 0], 3.0) == pytest.approx(1.0)
    # p = 2 matches the singular value
    rng = np.random.default_rng(4)
    mu = rng.standard_normal(3)
    eta = rng.standard_normal(3)
    sv = np.linalg.svd(np.outer(mu, eta), compute_uv=False)[0]
    assert lp.rank_one_exact(mu, eta, 2.0) == pytest.approx(sv, abs=1e-10)
    # p = 1: the dual norm is a weighted sup
    w = lp.FiniteMeasureSpace(["a", "b"], [2.0, 4.0])
    val = lp.rank_one_exact([1.0], [1.0, 1.0], 1.0, source=w, target=plain_space(1))
    assert val == pytest.approx(0.5)


def test_rank_one_exact_weighted_matches_oracle():
    rng = np.random.default_rng(12)
    for trial in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 2, n))
        tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.5, 2, m))
        p = float(rng.choice([1.0, 1.5, 3.0]))
        mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        A = lp.OperatorMatrix(src, tgt, p, np.outer(mu, eta))
        exact = lp.rank_one_exact(mu, eta, p, source=src, target=tgt)
        est = lp.oracle_grid(A, samples=2048, seed=trial).estimate
        assert est == pytest.approx(exact, abs=1e-8)


def test_exact_l1_is_max_weighted_column_sum():
    rng = np.random.default_rng(5)
    src = lp.FiniteMeasureSpace(range(4), rng.uniform(0.5, 2, 4))
    tgt = lp.FiniteMeasureSpace(range(3), rng.uniform(0.5, 2, 3))
    entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    A = lp.OperatorMatrix(src, tgt, 1.0, entries)
    res = lp.power_estimate(A)
    expected = max(
        (tgt.weights * np.abs(entries[:, j])).sum() / src.weights[j] for j in range(4)
    )
    assert res.method == "exact-l1"
    assert res.estimate == pytest.approx(expected, abs=1e-12)
    # the maximum sits at a basis vector, which the oracle must find
    oracle = lp.oracle_grid(A, samples=1024, seed=5)
    assert oracle.estimate == pytest.approx(expected, abs=1e-12)


def test_p2_is_svd():
    rng = np.random.default_rng(6)
    entries = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A = op(entries, 2.0)
    assert lp.power_estimate(A).estimate == pytest.approx(
        np.linalg.svd(entries, compute_uv=False)[0], abs=1e-10
    )


def test_lower_bound_soundness():
    rng = np.random.default_rng(7)
    for trial in range(15):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 2, n))
        tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.5, 2, m))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        entries = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        A = lp.OperatorMatrix(src, tgt, p, entries)
        res = lp.power_estimate(A, seed=trial)
        ratio = lp.vector_norm(tgt, A.apply(res.witness), p) / lp.vector_norm(
            src, res.witness, p
        )
        assert ratio == pytest.approx(res.estimate, abs=1e-10)


def test_nonnegative_matrices_single_start_matches_oracle():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        entries = rng.uniform(0.0, 2.0, size=(n, n))
        p = float(rng.choice([1.5, 3.0, 4.0]))
        A = op(entries, p)
        res = lp.power_estimate(A, seed=trial)
        assert res.method == "boyd-nonnegative"
        oracle = lp.oracle_grid(A, samples=2048, seed=trial + 1)
        assert res.estimate == pytest.approx(oracle.estimate, abs=1e-8)


def test_power_vs_oracle_complex():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(25):
        entries = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = op(entries, 3.0)
        a = lp.power_estimate(A, restarts=24, seed=trial).estimate
        b = lp.oracle_grid(A, samples=4096, seed=trial + 100).estimate
        worst = max(worst, abs(a - b))
    assert worst < 1e-6


def test_duality_of_estimates():
    rng = np.random.default_rng(10)
    for trial in range(10):
        n, m = 4, 3
        src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 2, n))
        tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.5, 2, m))
        p = float(rng.choice([1.5, 3.0]))
        entries = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        A = lp.OperatorMatrix(src, tgt, p, entries)
        B = lp.pairing_adjoint(A)
        a = lp.power_estimate(A, restarts=24, seed=trial).estimate
        b = lp.power_estimate(B, restarts=24, seed=trial + 1).estimate
        assert a == pytest.approx(b, abs=1e-6)


def test_submultiplicativity():
    rng = np.random.default_rng(11)
    for trial in range(10):
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = 3.0
        nA = lp.power_estimate(op(X, p), restarts=24, seed=trial).estimate
        nB = lp.power_estimate(op(Y, p), restarts=24, seed=trial).estimate
        nAB = lp.power_estimate(op(X @ Y, p), restarts=24, seed=trial).estimate
        assert nAB <= nA * nB + 1e-8


def test_oracle_witness_certifies_and_is_deterministic():
    def certified(A, **kwargs):
        res = lp.oracle_grid(A, **kwargs)
        ratio = lp.vector_norm(A.target, A.apply(res.witness), A.p) / lp.vector_norm(
            A.source, res.witness, A.p
        )
        assert ratio == pytest.approx(res.estimate, abs=1e-10)
        again = lp.oracle_grid(A, **kwargs)
        assert again.estimate == res.estimate
        assert np.array_equal(again.witness, res.witness)
        return res.estimate

    rng = np.random.default_rng(13)
    for trial in range(8):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 2, n))
        tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.5, 2, m))
        p = (1.5, 3.0)[trial % 2]
        entries = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        certified(lp.OperatorMatrix(src, tgt, p, entries), samples=1024, seed=trial)
    # the oracle calls of acceptance criterion C03 on its first two
    # coefficient kernels (generator seed 2024, entries rounded to
    # multiples of 1/4096), within 1e-13 of the values that a compass
    # search polishing each start down to h < 1e-13 reaches: below
    # h = sqrt(eps) a move's required gain is under one ulp, so stopping
    # there may move them by rounding only
    draws = np.round(np.random.default_rng(2024).standard_normal((2, 4, 4, 2)) * 4096) / 4096
    pinned = {
        1.0: (6.055746647391231, 5.513373314958633),
        1.5: (4.687764995617728, 3.854895637041337),
        3.0: (4.699914330186971, 4.4064143779877005),
    }
    for p, values in pinned.items():
        for i, value in enumerate(values):
            A = op(draws[i, ..., 0] + 1j * draws[i, ..., 1], p)
            estimate = certified(A, samples=2048, seed=i + 1, starts=6, rounds=2)
            assert estimate == pytest.approx(value, rel=1e-13, abs=0)


def test_oracle_dimension_cap():
    A = op(np.eye(9), 3.0)
    with pytest.raises(ValueError):
        lp.oracle_grid(A)


def test_zero_matrix():
    A = op(np.zeros((3, 3)), 3.0)
    res = lp.power_estimate(A)
    assert res.estimate == 0.0 and res.converged


def test_norm_sequence_unit_and_monotone():
    rep = lp.sequence_rep(2, 3.0)
    k = lp.leavitt(2)
    seq = lp.norm_sequence(rep, lp.unit(k), 3)
    assert [round(v, 12) for v in seq.values] == [1.0, 1.0, 1.0, 1.0]

    a = lp.gen_s(k, 1) + lp.gen_t(k, 1)
    seq = lp.norm_sequence(rep, a, 4)
    vals = seq.values
    assert seq.levels[0] == 1  # t-depth forces the first level
    assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))


def test_norm_sequence_degree_zero_constant():
    rep = lp.interval_rep(2, 3.0)
    k = lp.leavitt(2)
    a = lp.parse_element("s1*t2 + 2*s2*t1", k)
    seq = lp.norm_sequence(rep, a, 4)
    assert max(seq.values) - min(seq.values) < 1e-8


def test_norm_sequence_stabilizes_for_mixed_element():
    rep = lp.sequence_rep(2, 3.0)
    k = lp.leavitt(2)
    a = lp.parse_element("s1 + t1", k)
    seq = lp.norm_sequence(rep, a, 5)
    vals = seq.values
    assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))
    assert abs(vals[-1] - vals[-2]) < 0.05


def test_oracle_identity():
    A = op(np.eye(3), 3.0)
    assert lp.oracle_grid(A, samples=512, seed=0).estimate == pytest.approx(1.0, abs=1e-9)


def test_norm_sequence_level_range_error():
    rep = lp.sequence_rep(2, 3.0)
    k = lp.leavitt(2)
    a = lp.monomial(k, (), (1, 1, 1))
    with pytest.raises(ValueError):
        lp.norm_sequence(rep, a, 2)  # t-depth 3 > n_max


def test_oracle_reports_compass_iterations():
    # iterations counts the compass search it ran, summed over its starts,
    # whatever the number of samples
    A = op([[2.0, -1.0, 0.5], [1.0, 1.0j, 0.0], [0.0, 0.5, 1.5]], 3.0)
    assert lp.oracle_grid(A, samples=512, seed=0).iterations == 1012
    assert lp.oracle_grid(A, samples=2048, seed=0).iterations == 998


def random_kernel(rng, m, n, nonnegative):
    """Random CSR kernel with about four nonzeros per column."""
    nnz = 4 * n
    rows, cols = rng.integers(0, m, nnz), rng.integers(0, n, nnz)
    values = rng.uniform(0.1, 1.0, nnz)
    if not nonnegative:
        values = values * np.exp(2j * np.pi * rng.uniform(size=nnz))
    return sparse.csr_matrix((values, (rows, cols)), shape=(m, n))


def test_power_estimate_same_on_dense_and_csr(monkeypatch):
    from lpcuntz import pnorm

    forms = []
    for name in ("_boyd_block", "_boyd_nonnegative"):

        def recorded(B, *args, loop=getattr(pnorm, name), name=name):
            forms.append((name, sparse.issparse(B)))
            return loop(B, *args)

        monkeypatch.setattr(pnorm, name, recorded)

    rng = np.random.default_rng(21)
    # rows x columns x block width against DENSE_MAX_WORK = 2^15, for 6
    # complex starts or the one real vector, at about 4 nonzeros per
    # column: both loops dense at 8 x 6, the block on CSR and the real
    # vector dense at 160 x 120, both on CSR at 256 x 160
    for m, n, csr_loops in (
        (8, 6, ()),
        (160, 120, ("_boyd_block",)),
        (256, 160, ("_boyd_block", "_boyd_nonnegative")),
    ):
        src = lp.FiniteMeasureSpace(range(n), rng.uniform(0.5, 2, n))
        tgt = lp.FiniteMeasureSpace(range(m), rng.uniform(0.5, 2, m))
        for nonnegative in (True, False):
            loop = "_boyd_nonnegative" if nonnegative else "_boyd_block"
            K = random_kernel(rng, m, n, nonnegative)
            dense = K.toarray()
            for p in (1.0, 1.5, 2.0, 3.0):
                held_csr = lp.OperatorMatrix(src, tgt, p, K)
                held_dense = lp.OperatorMatrix(src, tgt, p, dense)
                # one frozen CSR kernel, bit for bit, sharing no memory
                for part in ("data", "indices", "indptr"):
                    a_part, b_part = getattr(held_csr.kernel, part), getattr(held_dense.kernel, part)
                    assert np.array_equal(a_part, b_part)
                    assert a_part.dtype == b_part.dtype
                    assert not a_part.flags.writeable and not b_part.flags.writeable
                    assert not np.shares_memory(a_part, getattr(K, part))
                assert not np.shares_memory(held_dense.kernel.data, dense)
                forms.clear()
                a = lp.power_estimate(held_csr, restarts=6, seed=3)
                b = lp.power_estimate(held_dense, restarts=6, seed=3)
                assert forms == ([] if p in (1.0, 2.0) else [(loop, loop in csr_loops)] * 2)
                assert a.estimate == b.estimate
                assert (a.method, a.iterations, a.converged) == (b.method, b.iterations, b.converged)
                assert np.array_equal(a.witness, b.witness)
                assert np.array_equal(held_csr.entries, dense)
                assert not held_csr.entries.flags.writeable
                assert not held_dense.entries.flags.writeable
    # every entry nonzero: the block stays dense past DENSE_MAX_WORK
    K = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    forms.clear()
    lp.power_estimate(op(K, 3.0), restarts=6, seed=3)
    assert forms == [("_boyd_block", False)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(6, 5), (24, 16), (96, 80), (256, 160)]),
    st.booleans(),
    st.sampled_from([1.5, 3.0, 4.5]),
    st.sampled_from([1e-300, 1e-150, 1e150, 1e300]),
    st.integers(0, 2**16),
)
def test_power_estimate_is_homogeneous(shape, nonnegative, p, c, seed):
    # Boyd runs on the kernel over a power of two at its largest modulus,
    # and both loops divide each vector by its largest modulus before a
    # power, a quotient or the next iterate, so c A runs A's numbers with
    # nothing overflowing or underflowing on the way; the four sizes run
    # each loop dense and on CSR at 6 starts.  Each start still stops
    # within BOYD_TOL, and one that stops a trip apart (c A and A differ
    # in their last bits) moves the value by about that much, hence
    # 10 BOYD_TOL
    K = random_kernel(np.random.default_rng(seed), *shape, nonnegative).toarray()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base = lp.power_estimate(op(K, p), restarts=6, seed=seed)
        scaled = lp.power_estimate(op(c * K, p), restarts=6, seed=seed)
    assert (scaled.method, scaled.converged) == (base.method, base.converged)
    assert scaled.estimate == pytest.approx(c * base.estimate, rel=1e-11, abs=0)


def test_generator_operator_does_not_alias_cached_matrix():
    rep = lp.interval_rep(2, 3.0)
    A = rep.generator_operator("s", 1, 3)
    cached = rep.s_matrix(1, 3)
    assert not np.shares_memory(A.kernel.data, cached.data)
    with pytest.raises(ValueError):
        A.kernel.data[0] = 0.0
    with pytest.raises(ValueError):
        A.entries[0, 0] = 0.0
    assert np.array_equal(A.entries, cached.toarray())


def single_start_boyd(B, p, x0, tol, max_iter, period=BOYD_AITKEN_PERIOD):
    """Reference: one run of the Boyd fixed-point iteration from x0 with
    a safeguarded Aitken step every ``period``-th trip, or the plain
    recurrence for ``period=None``; returns (gamma, x, iterations,
    converged)."""
    from lpcuntz.pnorm import _phase_power

    q = p / (p - 1.0)
    x = np.asarray(x0, dtype=complex)
    x = x / lp.lp_norm(x, p)
    best_gamma, best_x = 0.0, x
    gamma_prev = -1.0
    x_prev, kept = x, None
    for it in range(1, max_iter + 1):
        y = B @ x
        gamma = lp.lp_norm(y, p)
        if kept is not None and gamma < gamma_prev:
            # the candidate is dropped and the trip spent on it ignored
            x, kept = kept, None
            continue
        kept = None
        if gamma > best_gamma:
            best_gamma, best_x = gamma, x
        if gamma == 0.0:
            return 0.0, x, it, True
        z = B.conj().T @ _phase_power(y, p - 1.0)
        znorm = lp.lp_norm(z, q)
        pairing = float(np.real(np.vdot(z, x)))
        if znorm <= pairing * (1.0 + tol) or abs(gamma - gamma_prev) <= tol * gamma:
            return best_gamma, best_x, it, True
        gamma_prev = gamma
        xn = _phase_power(z / max(np.abs(z).max(), 1e-300), q - 1.0)
        nx = lp.lp_norm(xn, p)
        if nx == 0:
            return best_gamma, best_x, it, True
        tx = xn / nx
        if period is not None and it % period == 0:
            d1, d2 = x - x_prev, tx - x
            r = float(np.real(np.vdot(d1, d2))) / max(float(np.real(np.vdot(d1, d1))), 1e-300)
            candidate = tx + d2 * (r / (1.0 - r)) if abs(r) < 0.99 else None
            if candidate is not None and np.isfinite(candidate).all() and candidate.any():
                kept, tx = tx, candidate / lp.lp_norm(candidate, p)
        x_prev, x = x, tx
    return best_gamma, best_x, max_iter, False


def test_block_multistart_matches_single_starts():
    from lpcuntz.pnorm import _boyd_block

    rng = np.random.default_rng(8)
    stops = set()
    for trial in range(6):
        m, n, k = int(rng.integers(3, 30)), int(rng.integers(2, 20)), 12
        p = (1.5, 3.0, 4.5)[trial % 3]
        B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        B[:, -1] = 0.0
        X0 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        X0[:, 0] = np.eye(n)[-1]  # a start in the kernel of B
        # a cap of 30 trips, which the slowest starts reach: with the
        # Aitken step none of them needs 60
        gammas, _, iterations, converged = _boyd_block(B, p, X0, 1e-12, 30)
        reference = [single_start_boyd(B, p, X0[:, i], 1e-12, 30) for i in range(k)]
        assert list(iterations) == [r[2] for r in reference]
        assert list(converged) == [r[3] for r in reference]
        assert gammas.max() == pytest.approx(max(r[0] for r in reference), rel=1e-13, abs=0)
        stops |= {(r[0] == 0.0, r[3]) for r in reference}
        # power_estimate reports the per-start sum over its own starts
        starts = [np.ones(n), *np.eye(n)[: min(n, 4)]]
        seeded = np.random.default_rng(trial)
        while len(starts) < k:
            starts.append(seeded.standard_normal(n) + 1j * seeded.standard_normal(n))
        res = lp.power_estimate(op(B, p), restarts=k, seed=trial)
        assert res.iterations == sum(single_start_boyd(B, p, x, 1e-12, 600)[2] for x in starts)
    # zero image, converged and max_iter starts all occurred
    assert stops == {(True, True), (False, True), (False, False)}


@st.composite
def rank_one_sums(draw):
    """Weighted m x n kernel with at most one nonzero per row (by_rows)
    or per column, random phases, empty lines allowed, dense or CSR."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    by_rows = draw(st.booleans())
    lines, width = (m, n) if by_rows else (n, m)
    slots = draw(st.lists(st.none() | st.integers(0, width - 1), min_size=lines, max_size=lines))
    assume(any(k is not None for k in slots))
    mags = draw(st.lists(st.floats(0.1, 4.0), min_size=lines, max_size=lines))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=lines, max_size=lines))
    K = np.zeros((lines, width), dtype=complex)
    for i, k in enumerate(slots):
        if k is not None:
            K[i, k] = mags[i] * np.exp(1j * angles[i])
    K = K if by_rows else K.T
    weights = st.floats(0.25, 4.0)
    source = lp.FiniteMeasureSpace(range(n), draw(st.lists(weights, min_size=n, max_size=n)))
    target = lp.FiniteMeasureSpace(range(m), draw(st.lists(weights, min_size=m, max_size=m)))
    held = sparse.csr_matrix(K) if draw(st.booleans()) else K
    return source, target, held


def test_rank_one_sums_pick_the_largest_block():
    # the two-entry block wins in the p-norm of columns and the q-norm
    # of rows at p = 1.5 (2^(2/3)), the one-entry block at p = 3 (1.3);
    # at p = 2 the exact value replaces the SVD and agrees with it
    cols = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.3]])
    cases = ((1.5, 2 ** (2 / 3), 1.3), (2.0, 2**0.5, 2**0.5), (3.0, 1.3, 2 ** (2 / 3)))
    for p, col_norm, row_norm in cases:
        for K, expected in ((cols, col_norm), (cols.T, row_norm)):
            res = lp.power_estimate(op(K, p))
            assert res.method == "exact-rank-one-sum"
            assert res.estimate == pytest.approx(expected, rel=1e-14)
            if p == 2.0:
                top = np.linalg.svd(K, compute_uv=False)[0]
                assert res.estimate == pytest.approx(top, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(rank_one_sums(), st.sampled_from([1.5, 2.0, 3.0, 4.0]), st.integers(0, 2**16))
def test_rank_one_sums_are_exact(kernel, p, seed):
    from lpcuntz.pnorm import _boyd_block
    from lpcuntz.spatial import weighted_to_unweighted

    source, target, held = kernel
    A = lp.OperatorMatrix(source, target, p, held)
    res = lp.power_estimate(A, restarts=8, seed=seed)
    assert res.method == "exact-rank-one-sum"
    assert (res.iterations, res.converged) == (0, True)
    ratio = lp.vector_norm(target, A.apply(res.witness), p) / lp.vector_norm(source, res.witness, p)
    assert ratio == pytest.approx(res.estimate, rel=1e-12, abs=0)
    oracle = lp.oracle_grid(A, samples=512, seed=seed)
    assert res.estimate == pytest.approx(oracle.estimate, rel=0, abs=1e-8)
    B = weighted_to_unweighted(A)
    m, n = B.shape
    rng = np.random.default_rng(seed)
    starts = np.concatenate(
        [np.ones((n, 1)), np.eye(n), rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))],
        axis=1,
    )
    gammas = _boyd_block(B, p, starts, 1e-12, 600)[0]
    assert res.estimate >= gammas.max() - 1e-12
    # a new row and a new column, each holding two entries: no longer
    # a rank-one sum, so the SVD (p = 2) or Boyd runs
    K = np.zeros((m + 1, n + 1), dtype=complex)
    K[:-1, :-1] = A.entries
    K[-1, -2:] = [1.0, 0.5j]
    K[0, -1] = 0.75
    wider = lp.OperatorMatrix(
        lp.FiniteMeasureSpace(range(n + 1), [*source.weights, 1.0]),
        lp.FiniteMeasureSpace(range(m + 1), [*target.weights, 1.0]),
        p,
        sparse.csr_matrix(K) if sparse.issparse(held) else K,
    )
    method = lp.power_estimate(wider, restarts=8, seed=seed).method
    assert (method == "svd") if p == 2.0 else method.startswith("boyd-")


def test_real_and_complex_boyd_agree_on_nonnegative_kernels():
    # the real single-vector loop against the complex block loop, start by
    # start; empty rows give exact zeros in B x, where p < 2 takes a
    # negative power in the block loop, and empty columns give exact zeros
    # in B^H y, where q < 2 does; at p = 160 the unscaled powers overflow
    from lpcuntz.pnorm import _boyd_block, _boyd_nonnegative

    rng = np.random.default_rng(12)
    for trial in range(8):
        m, n = int(rng.integers(4, 24)), int(rng.integers(3, 16))
        K = rng.uniform(0.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.4)
        K[int(rng.integers(m))] = 0.0
        K[:, -1] = 0.0
        X0 = np.concatenate([np.ones((n, 1)), rng.uniform(0.1, 1.0, (n, 4)), np.eye(n)[:, -1:]], axis=1)
        for p in (1.25, 1.5, 3.0, 4.5, 160.0):
            for held in (K, sparse.csr_matrix(K)):
                cplx = _boyd_block(held.astype(complex), p, X0.astype(complex), 1e-12, 600)
                assert cplx[1].dtype == np.complex128
                for j in range(X0.shape[1]):
                    gamma, x, iterations, converged = _boyd_nonnegative(held, p, X0[:, j], 1e-12, 600)
                    assert x.dtype == np.float64
                    assert iterations == cplx[2][j]
                    assert converged == cplx[3][j]
                    assert gamma == pytest.approx(cplx[0][j], rel=1e-13, abs=0)
                    assert not np.isnan(gamma) and not np.isnan(x).any()
                gamma = _boyd_nonnegative(held, p, X0[:, -1], 1e-12, 600)[0]
                assert gamma == 0.0  # the start in the empty column


def test_extrapolated_boyd_stays_above_the_plain_recurrence(monkeypatch):
    # power_estimate's loops, with the Aitken step, against the plain
    # recurrence from the same starts on the same prescaled kernel, with
    # warnings as errors: on these kernels the best value falls at most
    # 1e-9 relative below it, and the loops take fewer iterations in all.
    # It is no bound in general: where a complex kernel's landscape is
    # flat, the two paths can end at different points either way
    # (value_floor in BENCH_25.json)
    from lpcuntz import pnorm
    from lpcuntz.pnorm import BOYD_MAX_ITER, BOYD_TOL

    runs = []
    for name in ("_boyd_block", "_boyd_nonnegative"):

        def recorded(B, p, X0, tol, max_iter, loop=getattr(pnorm, name), name=name):
            out = loop(B, p, X0, tol, max_iter)
            runs.append((name, B, X0, out))
            return out

        monkeypatch.setattr(pnorm, name, recorded)

    rng = np.random.default_rng(2025)

    def kernels():
        # the block of 6 starts is dense at 24 x 16 and on CSR from
        # 160 x 120, the real vector dense up to 160 x 120 and on CSR at
        # 256 x 160
        for m, n in ((24, 16), (160, 120), (256, 160)):
            for nonnegative in (True, False):
                for scale in (1e-100, 1e100):
                    for p in (1.25, 1.5, 3.0, 4.5, 160.0):
                        yield scale * random_kernel(rng, m, n, nonnegative), p
        # last, a reducible kernel: entries of its iterate decay to 0, and
        # the real loop took 216 iterations while it refused every
        # candidate for their signs at 1e-234 and below
        reducible = np.random.default_rng(1)
        random_kernel(reducible, 256, 160, True)
        yield random_kernel(reducible, 256, 160, True), 1.5

    forms, worst, iterations = set(), 0.0, [0, 0]
    for K, p in kernels():
        m, n = K.shape
        A = lp.OperatorMatrix(plain_space(n), plain_space(m), p, K)
        runs.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lp.power_estimate(A, restarts=6, seed=int(rng.integers(2**16)))
            ((name, B, X0, (gammas, _, its, _)),) = runs
            dense = B.toarray() if sparse.issparse(B) else B
            plain = [
                single_start_boyd(dense, p, x, BOYD_TOL, BOYD_MAX_ITER, period=None)
                for x in X0.reshape(n, -1).T
            ]
        forms.add((name, sparse.issparse(B)))
        floor = max(r[0] for r in plain)
        worst = max(worst, (floor - np.max(gammas)) / floor)
        iterations[0] += sum(r[2] for r in plain)
        iterations[1] += int(np.sum(its))
    assert forms == {(loop, csr) for loop in ("_boyd_block", "_boyd_nonnegative") for csr in (False, True)}
    assert worst <= 1e-9
    assert iterations[1] < iterations[0]
    # the reducible kernel's run, the last one, keeps its extrapolations
    assert name == "_boyd_nonnegative" and its < 216


def test_a_dropped_candidate_never_stops_a_start(monkeypatch):
    # every candidate is the iterate x moved back along its Boyd step
    # T x - x just far enough that its gamma falls below x's by 1e-14 to
    # 1e-13 relative, inside the stall rule's band: each is dropped, and
    # the start then follows the plain recurrence bit for bit.  It stops
    # on the plain recurrence's stopping trip plus one trip per drop,
    # where a dropped trip that could stop a start would end it on the
    # trip after the first extrapolation
    from lpcuntz import pnorm
    from lpcuntz.pnorm import _column_norms

    period = BOYD_AITKEN_PERIOD
    gaps = []

    def run(loop, B, p, X0, step_back):
        monkeypatch.setattr(pnorm, "_aitken", step_back)
        extrapolated = np.atleast_1d(loop(B, p, X0, 1e-12, 600)[2])
        monkeypatch.undo()
        monkeypatch.setattr(pnorm, "BOYD_AITKEN_PERIOD", 10**9)
        plain = np.atleast_1d(loop(B, p, X0, 1e-12, 600)[2])
        monkeypatch.undo()
        return extrapolated, plain

    def stepping_back(B, p):
        def gamma(V):
            return _column_norms(B @ V, p) / _column_norms(V, p)

        def step_back(X_prev, X, TX):
            n = X.shape[0]
            X2, steps = X.reshape(n, -1), (TX - X).reshape(n, -1)
            C, g = X2.copy(), gamma(X2)
            for j in range(X2.shape[1]):
                for t in 10.0 ** -np.arange(1, 17):
                    C[:, j] = X2[:, j] - t * steps[:, j]
                    gap = (g[j] - gamma(C[:, j : j + 1])[0]) / g[j]
                    if gap <= 1e-13:
                        break
                gaps.append(gap)
            return C.reshape(X.shape), np.ones(X.shape[1:], dtype=bool)

        return step_back

    rng = np.random.default_rng(1)
    for trial in range(6):
        m, n, p = 12, 8, (1.5, 3.0, 4.5)[trial % 3]
        B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        X0 = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        extrapolated, plain = run(pnorm._boyd_block, B, p, X0, stepping_back(B, p))
        assert np.array_equal(extrapolated - (extrapolated - 1) // period, plain)
        B = rng.uniform(0.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.4)
        extrapolated, plain = run(pnorm._boyd_nonnegative, B, p, np.ones(n), stepping_back(B, p))
        assert np.array_equal(extrapolated - (extrapolated - 1) // period, plain)
        assert extrapolated[0] > period + 1
    assert 0.0 < min(gaps) and max(gaps) <= 1e-13


@pytest.mark.parametrize("p", [160.0, 1000.0, 5000.0])
def test_power_estimate_is_finite_at_large_p(p):
    # 100^p overflows a double from p = 155 on, and a random start's p-th
    # powers underflow; every p-norm scales by the largest modulus before
    # the power, so no sum reaches inf or 0 on the exact, nonnegative and
    # multistart paths
    a = lp.parse_element("100*s1 + t1", lp.leavitt(2))
    paths = (
        (lp.sequence_rep(2, p), "exact-rank-one-sum"),
        (lp.interval_rep(2, p), "boyd-nonnegative"),
        (lp.fourier_twist(lp.sequence_rep(2, p)), "boyd-multistart"),
    )
    for rep, method in paths:
        for level in (1, 2):
            A = lp.evaluate(rep, a, level)
            with np.errstate(over="raise", invalid="raise"):
                res = lp.power_estimate(A)
                ratio = lp.vector_norm(A.target, A.apply(res.witness), p) / lp.vector_norm(
                    A.source, res.witness, p
                )
            assert res.method == method
            assert np.isfinite(res.estimate) and res.estimate > 0.0
            assert ratio == pytest.approx(res.estimate, rel=1e-12)
            # 100*s1 + t1 has norm 101, which the spatial models' levels
            # reach (sequence) or approach from below (interval)
            if method == "exact-rank-one-sum":
                assert res.estimate == pytest.approx(101.0, rel=1e-12)
            elif method == "boyd-nonnegative":
                assert res.estimate <= 101.0 * (1 + 1e-12)


@pytest.mark.parametrize(
    ("p", "samples"), [(160.0, 4096), (1000.0, 4096), (3.0, 1000), (3.0, 300)]
)
def test_oracle_is_finite_and_silent(p, samples):
    # the oracle divides the kernel and each sample by its largest
    # modulus before the p-th powers, so its ranking sees no inf / inf;
    # and any number of samples, not only a power of two, draws without
    # a warning
    A = op([[100.0, 1.0], [0.0, 1.0]], p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = lp.oracle_grid(A, samples=samples)
    assert oracle.estimate == pytest.approx(lp.power_estimate(A).estimate, rel=1e-9, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_compass_is_silent_at_large_p(n):
    # the compass trials of the all-ones n x n kernel have images up to n
    # times the largest modulus, whose 1000-th power overflows a double
    A = op(np.ones((n, n)), 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = lp.oracle_grid(A)
        exact = lp.power_estimate(A)
    assert oracle.estimate == pytest.approx(exact.estimate, rel=0, abs=1e-9)


def test_norm_sequence_is_monotone_through_the_lifted_start():
    # seeded ladders whose cold multistart values drop by up to 2e-7
    # relative (p = 3) and 1.7e-3 (p = 1.5) from one level to the next
    from lpcuntz.cli import rep_from_descriptor
    from lpcuntz.sampling import random_element

    kind = lp.leavitt(2)
    cases = []
    for p, index in ((3.0, 18), (3.0, 22), (1.5, 23)):
        rng = np.random.default_rng([2026, index])
        a = random_element(rng, kind, max_terms=4, max_len=2)
        while len(a.terms) < 2:
            a = random_element(rng, kind, max_terms=4, max_len=2)
        rep = rep_from_descriptor(("fourier:sequence", "fourier:interval")[index % 2], 2, p)
        cases.append((rep, a, index))
    # nonnegative kernels, whose all-ones start Boyd's stopping rules end
    # up to 2.6e-12 relative below the level before
    sequence = lp.sequence_rep(2, 3.0)
    for text in ("s1 + t1", "s1*t2 + s2*t1 + t1*t2"):
        cases.append((sequence, lp.parse_element(text, kind), 7))
    for rep, a, index in cases:
        lo = a.t_depth()
        seq = lp.norm_sequence(rep, a, lo + 5, restarts=20, seed=index)
        values = seq.values
        for level, value in zip(seq.levels, values):
            cold = lp.power_estimate(lp.evaluate(rep, a, level), restarts=20, seed=index)
            assert value >= cold.estimate * (1 - 1e-12)
        assert all(values[i + 1] >= values[i] * (1 - 1e-12) for i in range(len(values) - 1))
