"""Operator p -> p norm estimation between weighted sequence spaces.

Weights are absorbed by diagonal scaling into the CSR kernel, so
everything reduces to plain l^p kernels.  The tests run in this order.
A kernel without nonzeros has norm 0.  Exponent 1 is exact (max
weighted column sum).  A kernel that is an l^p direct sum of rank-one
blocks is exact at every other p: with at most one nonzero per row its
norm is the largest column p-norm, and with at most one nonzero per
column the largest row q-norm (Hoelder), which covers the spatial
partial isometries and everything the spatiality report forms from
them.  Exponent 2 is otherwise the largest singular value of the dense
kernel.  Otherwise the estimate is a
Boyd-type fixed-point iteration with the dual-exponent phase map
x -> |x|^(p-1) * phase(x).  It is globally convergent from the
all-ones start for entrywise-nonnegative kernels, which run it alone
on one real vector, where every image stays nonnegative and the phase
map is a plain positive power, and take an optional caller-given start
(the lifted previous witness in norm_sequence) as it stands.  Every
other kernel runs it in complex arithmetic from multistart plus that
start: all starts iterate together as the columns of one block, and
each iteration takes one magnitude and one power per side of the
kernel (masked only where the exponent is negative) and reads the
duality pairing off the sum that gives the ratio.  Every
BOYD_AITKEN_PERIOD-th trip both loops try one vector Aitken (Delta^2)
step per start (_aitken) from its last two iterates and their plain
image.  The candidate is taken only when the step's quotient r has
|r| < 0.99 and it is finite, nonzero and, in the real loop, entrywise
nonnegative once its entries below 1e-150 are set to 0; it is scaled to
p-norm 1 by max-scaled powers.  A candidate whose value on the next
trip is below that of the iterate it came from is dropped for the kept
plain image, and that trip neither stops the start nor counts for the
stall rule, so the values a start keeps never decrease.  Both loops run
on a dense copy of the kernel when rows x columns x block width is at
most DENSE_MAX_WORK or an eighth or more of the entries are nonzero, and on
CSR otherwise.  Both run on the kernel divided by the power of two at
its largest modulus, which changes no iterate, and divide each vector
by its largest modulus before a power or a quotient, as lp_norm and the
exact tests do, so neither a large p nor a kernel scaled far from 1
can overflow or underflow a sum or the next iterate.  A sampling
oracle with compass-search ascent, which never uses the Boyd map,
covers small source dimensions; it divides the kernel and each sample
by its largest modulus before the powers, and its compass loop takes
max-scaled powers on a trip whose plain ones could overflow; a start
stops at step h < sqrt(eps), where the gain a move needs, h^2 times the
value, is under one ulp.  Every returned value is a certified lower
bound: the witness reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .spatial import (
    OperatorMatrix,
    conjugate_exponent,
    lp_norm,
    unweighted_kernel,
    vector_norm,
    weighted_to_unweighted,
)

ORACLE_MAX_DIM = 8
# Boyd runs on a dense copy of the kernel when rows x columns x block
# width (the number of starts, 1 for the real vector of a nonnegative
# kernel) is at most DENSE_MAX_WORK, or when an eighth or more of the
# entries are nonzero, and on CSR otherwise.  Per trip, 2 BLAS threads:
# a 21-column complex block on the ladder kernels (1-5 % nonzero) costs
# 1.0-1.5x dense on CSR up to 32 x 32 (21,504), 0.9x at 64 x 32
# (43,008) and 0.5-0.65x at 128 x 128; the one real vector 1.4-1.8x up
# to 128 x 128, 0.9-1.2x at 256 x 128 (32,768) and 0.7-0.8x at
# 256 x 256.  On random kernels the block's CSR overtakes dense below
# 10-12 % nonzeros and the real vector's below 15-20 %; a full
# 128 x 128 block runs 5x slower on CSR.
DENSE_MAX_WORK = 2**15
# Boyd's relative stopping tolerance and iteration cap per start
BOYD_TOL = 1e-12
BOYD_MAX_ITER = 600
# every BOYD_AITKEN_PERIOD-th Boyd trip tries a safeguarded Aitken
# step; 3, 4 and 5 gave the four norm ladders of the benchmark the same
# solve time (2-core VM, min of 7 repeats in one process), 6 and 8
# 8-12 % more.  Below 3 a dropped candidate would feed the next
# extrapolation
BOYD_AITKEN_PERIOD = 5


@dataclass(frozen=True)
class NormResult:
    estimate: float
    """The certified lower bound: ||A witness|| / ||witness||, which the
    witness reproduces."""
    witness: np.ndarray  # in the weighted source coordinates
    method: str
    iterations: int
    converged: bool


def _phase_power(y: np.ndarray, exponent: float) -> np.ndarray:
    """|y|^exponent * phase(y), with 0 -> 0.

    Entries below 1e-150 are treated as zero so that the phase quotient
    cannot overflow against an underflowing power.
    """
    mags = np.abs(y)
    nz = mags > 1e-150
    # whole-array arithmetic on a safe divisor: masked gathers cost ~3x
    safe = np.where(nz, mags, 1.0)
    out = safe**exponent * (y / safe)
    out[~nz] = 0.0
    return out


def _column_norms(V: np.ndarray, p: float) -> np.ndarray:
    """p-norm of each column of V, its moduli divided by their largest
    before the power, as in lp_norm; 0 for a zero column."""
    mags = np.abs(V)
    top = mags.max(axis=0)
    mags /= np.where(top > 0, top, 1.0)
    return top * np.sum(mags**p, axis=0) ** (1.0 / p)


def _masked_power(mags: np.ndarray, exponent: float) -> np.ndarray:
    """mags^exponent where mags > 1e-150 and 0 elsewhere, so that a
    negative exponent never meets an exact or underflowing zero."""
    out = np.zeros(mags.shape)
    np.power(mags, exponent, out=out, where=mags > 1e-150)
    return out


def _aitken(X_prev, X, TX):
    """The vector Delta^2 (Aitken) candidate of each column from the
    iterates X_prev, X and the plain image TX = T X: with d1 = X - X_prev,
    d2 = TX - X and r = <d1, d2> / <d1, d1> (real parts), the candidate
    TX + d2 r / (1 - r).  Returns it with the mask of the columns that
    may take it: |r| < 0.99, finite and nonzero.  A real array takes
    the same operations (its imaginary parts are zeros), so the real
    loop and the complex block form r alike on a nonnegative kernel."""
    d1, C = X - X_prev, TX - X  # C holds d2 until the candidate replaces it
    num = (d1.real * C.real + d1.imag * C.imag).sum(axis=0)
    den = (d1.real * d1.real + d1.imag * d1.imag).sum(axis=0)
    r = num / np.where(den > 0.0, den, 1.0)
    ok = (den > 0.0) & (np.abs(r) < 0.99)
    r = np.where(ok, r, 0.0)
    C *= r / (1.0 - r)
    C += TX
    ok &= np.isfinite(C).all(axis=0) & C.any(axis=0)
    return C, ok


def _boyd_block(B, p, X0, tol, max_iter):
    """The fixed-point iteration from every column of X0 at once.

    Each column follows the single-start recurrence and its stopping
    rules (duality pairing, stall, max_iter) and leaves the block when
    it stops.  The arithmetic is complex.  Each iteration takes one
    magnitude per side, of Y = B X and of Z = B^H (W Y), and one power
    per side, W = M^(p-2) with M = |Y| / max|Y| and U = S^(q-2) with
    S = |Z| / max|Z|, all per column; the one of p - 2 and q - 2 that is
    negative takes the mask of _masked_power.  Then
    gamma = max|Y| (sum W M^2)^(1/p), ||Z||_q = max|Z| (sum U S^2)^(1/q),
    the pairing Re<Z, X> = <W Y, B X> = max|Y|^2 sum W M^2 comes from
    gamma's sum, and the plain image U (Z / max|Z|) / (sum U S^2)^(1/p)
    has p-norm 1 and no entry above 1.  A zero image or a zero next
    iterate needs no test of its own: both come with z = 0, which the
    pairing rule (0 <= 0) stops.

    Every BOYD_AITKEN_PERIOD-th trip a column whose _aitken candidate
    is admissible takes it, scaled to p-norm 1 by _column_norms, in
    place of its plain image, which is kept.  On the next trip a
    candidate whose gamma is below that of the iterate it was
    extrapolated from is dropped: the column goes back to the kept
    image, and that trip neither stops it nor moves its gamma_prev, so
    the ratios of the iterates a column keeps never decrease.  Returns
    per-column arrays (gamma, x, iterations, converged), where x is the
    column's best iterate.
    """
    q = conjugate_exponent(p)
    w_power = _masked_power if p < 2.0 else np.power
    u_power = _masked_power if q < 2.0 else np.power
    BH = B.conj().T
    if sparse.issparse(BH):
        BH = BH.tocsr()
    X = np.array(X0, dtype=complex)
    norms = _column_norms(X, p)
    if np.any(norms == 0):
        raise ValueError("zero start vector")
    X /= norms
    n, k = X.shape
    iterations, converged = np.full(k, max_iter), np.zeros(k, dtype=bool)
    # best value and iterate of each live column, kept in step with X;
    # a start's pair is set aside when it stops
    live, gbest, xbest = np.arange(k), np.zeros(k), X.copy()
    stopped = []
    gamma_prev = np.full(k, -1.0)
    # the previous iterate, and after an extrapolating trip the plain
    # images (kept) of the columns that took a candidate (trial)
    X_prev, kept, trial = X, None, None
    for it in range(1, max_iter + 1):
        Y = B @ X
        M = np.abs(Y)
        ymax = M.max(axis=0, initial=1e-300)
        M /= ymax
        W = w_power(M, p - 2.0)
        Y *= W
        M *= M
        M *= W
        msum = M.sum(axis=0)
        gamma = ymax * msum ** (1.0 / p)
        # gamma_prev <= gbest, so a dropped candidate is never the best
        back = None if kept is None else trial & (gamma < gamma_prev)
        better = gamma > gbest
        np.copyto(gbest, gamma, where=better)
        np.copyto(xbest, X, where=better)
        Z = BH @ Y
        # each temporary goes once dead, so that neither the extrapolation
        # nor the next trip holds it next to its own arrays (Y, M and W
        # are 88 MB at level 16 of the Fourier s1 + t1 ladder)
        del Y, M, W
        S = np.abs(Z)
        zmax = S.max(axis=0, initial=1e-300)
        S /= zmax
        U = u_power(S, q - 2.0)
        S *= S
        S *= U
        sq = S.sum(axis=0)
        del S
        # ||Z||_q <= Re<Z, X> (1 + tol), both sides over max|Y|, which
        # keeps them off the underflow of max|Y|^2
        stall = np.abs(gamma - gamma_prev) <= tol * gamma
        stop = ((zmax / ymax) * sq ** (1.0 / q) <= ymax * msum * (1.0 + tol)) | stall
        if back is not None:
            stop &= ~back
        if stop.any():
            done = live[stop]
            iterations[done], converged[done] = it, True
            stopped.append((done, gbest[stop], xbest[:, stop]))
            go = ~stop
            live, gbest, xbest = live[go], gbest[go], xbest[:, go]
            gamma, zmax, sq, U, Z = gamma[go], zmax[go], sq[go], U[:, go], Z[:, go]
            X, X_prev, gamma_prev = X[:, go], X_prev[:, go], gamma_prev[go]
            if back is not None:
                back, kept = back[go], kept[:, go]
            if live.size == 0:
                break
        # Z scaled before it meets U, which is huge where |Z| is tiny:
        # U |Z| / max|Z| = S^(q-1) <= 1
        Z *= 1.0 / (zmax * sq ** (1.0 / p))
        TX = U * Z
        del U, Z
        if back is not None and back.any():
            TX[:, back] = kept[:, back]
            gamma = np.where(back, gamma_prev, gamma)
        kept = None
        if it % BOYD_AITKEN_PERIOD == 0:
            C, trial = _aitken(X_prev, X, TX)
            if trial.any():
                C /= np.where(trial, _column_norms(C, p), 1.0)
                C[:, ~trial] = TX[:, ~trial]
                kept, TX = TX, C
        X_prev, X, gamma_prev = X, TX, gamma
    stopped.append((live, gbest, xbest))
    gammas, best_x = np.zeros(k), np.empty((n, k), dtype=complex)
    for starts, g, x in stopped:
        gammas[starts], best_x[:, starts] = g, x
    return gammas, best_x, iterations, converged


def _boyd_nonnegative(B, p, x, tol, max_iter):
    """_boyd_block's recurrence for one real start x >= 0 on a kernel
    B >= 0, on 1-D vectors.  Every image is nonnegative, so both phase
    maps are positive powers: with s = y / max y for y = B x,
    gamma = max y (sum s^p)^(1/p) and w = s^(p-1); with t = z / max z
    for z = B^T w, ||z||_q = max z (sum t^q)^(1/q), and the plain image
    is t^(q-1) over its p-norm (sum t^q)^(1/p).  Same stopping rules,
    best-iterate tracking and extrapolation, where a candidate must
    also be entrywise nonnegative once entries of modulus <= 1e-150 are
    0 (it is dropped, not clipped) and is scaled by lp_norm; returns
    (gamma, x, iterations, converged) with x the best iterate."""
    q = conjugate_exponent(p)
    BT = B.T.tocsr() if sparse.issparse(B) else B.T
    x = x / lp_norm(x, p)
    best_gamma, best_x, gamma_prev = 0.0, x, -1.0
    x_prev, kept = x, None
    for it in range(1, max_iter + 1):
        y = B @ x
        ymax = y.max(initial=1e-300)
        s = y / ymax
        w = s ** (p - 1.0)
        ws = float(w @ s)
        gamma = ymax * ws ** (1.0 / p)
        if kept is not None and gamma < gamma_prev:
            # the candidate fell below its iterate: back to the plain image
            x, kept = kept, None
            continue
        kept = None
        if gamma > best_gamma:
            best_gamma, best_x = gamma, x
        z = BT @ w
        zmax = z.max(initial=1e-300)
        t = z / zmax
        u = t ** (q - 1.0)
        sq = float(u @ t)
        # z @ x = w @ (B x) = max y (w @ s)
        pairing, znorm = ymax * ws, zmax * sq ** (1.0 / q)
        if znorm <= pairing * (1.0 + tol) or abs(gamma - gamma_prev) <= tol * gamma:
            return best_gamma, best_x, it, True
        tx = u / sq ** (1.0 / p)
        if it % BOYD_AITKEN_PERIOD == 0:
            c, ok = _aitken(x_prev, x, tx)
            c[np.abs(c) <= 1e-150] = 0.0  # decayed entries, e.g. -1e-234 on a reducible kernel
            if ok and (c >= 0.0).all():
                kept, tx = tx, c / lp_norm(c, p)
        x_prev, x, gamma_prev = x, tx, gamma
    return best_gamma, best_x, max_iter, False


def _boyd_kernel(B, width):
    """The CSR kernel B as Boyd runs it on a block of ``width`` columns:
    a dense copy when rows x columns x width is at most DENSE_MAX_WORK
    or an eighth or more of the entries are nonzero, else B itself."""
    entries = B.shape[0] * B.shape[1]
    if entries * width <= DENSE_MAX_WORK or 8 * B.nnz >= entries:
        return B.toarray()
    return B


def _stacked_bincount(index, weights, length: int) -> np.ndarray:
    """np.bincount(index, weights=w, minlength=length) for each row w of
    ``weights``, stacked."""
    out = np.empty((len(weights), length))
    # a row at a time: an offset index over the whole stack would take as
    # much memory as the stack
    for row, w in zip(out, weights):
        row[:] = np.bincount(index, weights=w, minlength=length)
    return out


def _rank_one_sum_witness(B, p, data=None):
    """Unweighted extremal vectors, one row per kernel, of the kernels
    with the value rows of ``data`` (B's own values by default) on the
    CSR pattern of B, when their shared pattern of nonzeros is an l^p
    direct sum of rank-one blocks, else None.

    At most one nonzero per row: the columns have disjoint supports, so
    ||B x||^p = sum_x |x_x|^p ||B e_x||^p and the best basis vector is
    extremal.  At most one nonzero per column: the rows read disjoint
    coordinates, so ||B|| is the largest row q-norm, attained by the
    Hoelder extremizer conj(phase(b_i)) |b_i|^(q-1) of that row.
    """
    m, n = B.shape
    values = B.data[None] if data is None else data
    rows = np.repeat(np.arange(m), np.diff(B.indptr))
    cols = B.indices
    nz = np.all(values != 0, axis=0)
    if not nz.all():
        rows, cols, values = rows[nz], cols[nz], values[:, nz]
    if not cols.size:  # zero kernels: power_estimate's zero rule
        return None
    X = np.zeros((len(values), n), dtype=complex)
    # moduli scaled by their maximum, so the powers cannot overflow
    scaled = np.abs(values)
    scaled /= scaled.max(axis=1, keepdims=True)
    if np.bincount(rows, minlength=m).max() <= 1:
        scaled **= p
        sums = _stacked_bincount(cols, scaled, n)
        X[np.arange(len(values)), np.argmax(sums, axis=1)] = 1.0
        return X
    if np.bincount(cols, minlength=n).max() <= 1:
        q = conjugate_exponent(p)
        scaled **= q
        sums = _stacked_bincount(rows, scaled, m)
        for x, kernel_values, top_row in zip(X, values, np.argmax(sums, axis=1)):
            row = rows == top_row
            x[cols[row]] = _phase_power(kernel_values[row].conj(), q - 1.0)
        return X
    return None


def _finish(A: OperatorMatrix, x_unweighted, method, iterations, converged):
    """Translate an unweighted witness back and certify the bound."""
    mu = A.source.weights
    x = np.asarray(x_unweighted, dtype=complex) * mu ** (-1.0 / A.p)
    nx = vector_norm(A.source, x, A.p)
    if nx == 0:
        return NormResult(0.0, x, method, iterations, converged)
    value = vector_norm(A.target, A.apply(x), A.p) / nx
    x = x / nx
    return NormResult(value, x, method, iterations, converged)


def _finish_values(A: OperatorMatrix, X, data) -> list:
    """_finish(...).estimate for each unweighted witness row of X on the
    kernel with the values of the matching row of ``data`` on the CSR
    pattern of A, in one pass over that pattern.  Each image is formed
    as the CSR product forms it: the entry products in real arithmetic
    (numpy's complex product may fuse a multiply and an add) and each
    row's sum in entry order, by one bincount per kernel."""
    K, p = A.kernel, A.p
    m = K.shape[0]
    x = np.asarray(X, dtype=complex) * A.source.weights ** (-1.0 / p)
    gathered = x[:, K.indices]
    rows = np.repeat(np.arange(m), np.diff(K.indptr))
    y = np.empty((len(x), m), dtype=complex)
    y.real = _stacked_bincount(rows, data.real * gathered.real - data.imag * gathered.imag, m)
    y.imag = _stacked_bincount(rows, data.real * gathered.imag + data.imag * gathered.real, m)
    nxs = _lp_norms(x, p, A.source.weights)
    nys = _lp_norms(y, p, A.target.weights)
    return [0.0 if nx == 0 else ny / nx for nx, ny in zip(nxs, nys)]


def _lp_norms(V: np.ndarray, p: float, weights) -> list:
    """lp_norm(v, p, weights) of each row v of V at a finite p, by
    lp_norm's operations: elementwise over the stack, and the weighted
    sum and its root per row."""
    mags = np.abs(V)
    tops = mags.max(axis=1, initial=0.0)
    terms = (mags / np.where(tops > 0.0, tops, 1.0)[:, None]) ** p
    return [
        float(top) if top == 0.0 else float(top * (weights @ row) ** (1.0 / p))
        for top, row in zip(tops, terms)
    ]


def power_estimate(
    A: OperatorMatrix, restarts: int = 20, seed: int = 0, start=None
) -> NormResult:
    """Best lower bound for the weighted p -> p norm of A.

    ``start``, a vector in the weighted source coordinates of A (those
    of ``NormResult.witness``), is one extra Boyd start next to the
    ``restarts`` cold starts of a kernel with a complex or negative
    entry.  A nonnegative kernel keeps its single all-ones start, runs
    in real arithmetic, and takes |start| as it stands when that beats
    Boyd's best."""
    p = A.p
    B = unweighted_kernel(A)
    n = B.shape[1]
    if n == 0 or B.shape[0] == 0 or not np.any(B.data):
        return NormResult(0.0, np.zeros(n, dtype=complex), "zero", 0, True)

    if p == 1.0:
        sums = abs(B).sum(axis=0)
        col = int(np.argmax(sums))
        x = np.zeros(n, dtype=complex)
        x[col] = 1.0
        return _finish(A, x, "exact-l1", 0, True)

    X = _rank_one_sum_witness(B, p)
    if X is not None:
        return _finish(A, X[0], "exact-rank-one-sum", 0, True)

    if p == 2.0:
        vh = np.linalg.svd(B.toarray())[2]
        return _finish(A, vh[0].conj(), "svd", 0, True)

    nonnegative = bool(not np.any(B.data.imag)) and bool(np.all(B.data.real >= 0))
    if nonnegative:
        B.data = np.ascontiguousarray(B.data.real)  # drops the complex copy
    # the power of two at the largest modulus divides B exactly: the
    # iterates and the winning start do not change (_finish measures A
    # itself), and B^H (W Y), which grows as B squared, cannot overflow
    # or underflow for a kernel scaled far from 1
    B.data *= 2.0 ** -np.frexp(np.abs(B.data).max())[1]
    if nonnegative:
        B = _boyd_kernel(B, 1)
        gamma, x, iterations, converged = _boyd_nonnegative(
            B, p, np.ones(n), BOYD_TOL, BOYD_MAX_ITER
        )
        if start is not None:
            # one matvec: Boyd's stopping rules may end the all-ones start below it
            lifted = np.abs(start) * A.source.weights ** (1.0 / p)
            if lp_norm(B @ lifted, p) > gamma * lp_norm(lifted, p):
                x = lifted
        return _finish(A, x, "boyd-nonnegative", iterations, converged)

    starts = [np.ones(n, dtype=complex)]
    for i in range(min(n, 4)):
        e = np.zeros(n, dtype=complex)
        e[i] = 1.0
        starts.append(e)
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if start is not None and np.any(start):
        starts.append(start * A.source.weights ** (1.0 / p))
    gammas, xs, iterations, converged = _boyd_block(
        _boyd_kernel(B, len(starts)), p, np.stack(starts, axis=1), BOYD_TOL, BOYD_MAX_ITER
    )
    best = int(np.argmax(gammas))
    x = xs[:, best] if gammas[best] > 0.0 else np.ones(n, dtype=complex)
    return _finish(A, x, "boyd-multistart", int(iterations.sum()), bool(converged.all()))


def oracle_grid(
    A: OperatorMatrix,
    samples: int = 4096,
    seed: int = 0,
    starts: int = 10,
    rounds: int = 4,
) -> NormResult:
    """Independent brute-force lower bound for small source dimension:
    ``samples`` seeded complex Gaussian points plus the basis and the
    all-ones vector, then derivative-free local ascent from ``starts``
    direction-diverse candidates at once, in up to ``rounds`` passes
    that each restart the search step.  Deterministic for a given seed.
    ``iterations`` counts compass iterations summed over the starts."""
    p = A.p
    B = weighted_to_unweighted(A)
    n = B.shape[1]
    if n > ORACLE_MAX_DIM:
        raise ValueError(f"oracle restricted to source dimension <= {ORACLE_MAX_DIM}")
    if n == 0 or B.shape[0] == 0 or not np.any(B):
        return NormResult(0.0, np.zeros(n, dtype=complex), "oracle-grid", 0, True)

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    X = np.concatenate([X, np.eye(n, dtype=complex), np.ones((n, 1))], axis=1)

    # B and each sample column divided by their largest modulus before
    # any p-th power (_column_norms), so that a large p cannot overflow a
    # sum to inf; the ratios do not change
    B = B / np.abs(B).max()
    norms_in = _column_norms(X, p)
    keep = norms_in > 0
    X = X[:, keep] / norms_in[keep]
    norms_out = _column_norms(B @ X, p)
    order = np.argsort(norms_out)[::-1]

    # ascend from high-ranked starts that point into distinct basins
    picks = []
    for idx in order:
        x = X[:, idx]
        if all(
            abs(np.vdot(X[:, j], x)) / (np.linalg.norm(X[:, j]) * np.linalg.norm(x))
            < 0.95
            for j in picks
        ):
            picks.append(idx)
        if len(picks) >= starts:
            break

    # Compass search from all picks at once: each iteration tries
    # x +- h e_j, x +- i h e_j and the same about x + (last move), a
    # pattern move along curved ridges, in one matmul.  A start moves
    # on a gain above h^2 times its value; h then grows by 1.25, else
    # halves.  It stops once h < sqrt(eps), where h^2 times the value is
    # under one ulp of it (further trips test rounding, not the landscape),
    # or after 400 iterations (the cap ends the creep on p = 1 ridges);
    # each pass re-inflates h and a start that a pass does not improve retires.
    X, values = X[:, picks], norms_out[picks]
    D = np.kron([1, -1, 1j, -1j], np.eye(n))
    # a sum of up to max(B.shape) p-th powers of moduli below this is finite
    overflow_modulus = (np.finfo(float).max / max(B.shape)) ** (1.0 / p)
    h_min = np.sqrt(np.finfo(float).eps)
    live = np.arange(len(picks))
    iterations = 0
    for _ in range(rounds):
        before = values.copy()
        # x, v, mv: the live starts' points, values and last moves
        idx, h = live, np.full(live.size, 0.25)
        x, v, mv = X[:, live], values[live], np.zeros((n, live.size), dtype=complex)
        for _ in range(400):
            if idx.size == 0:
                break
            iterations += idx.size
            # trials: compass, then pattern moves; mags: |B @ trials| over |trials|
            trials = np.empty((n, idx.size, 8 * n), dtype=complex)
            compass, pattern = trials[:, :, : 4 * n], trials[:, :, 4 * n :]
            np.multiply(h[None, :, None], D[:, None, :], out=compass)
            compass += x[:, :, None]
            np.add(compass, mv[:, :, None], out=pattern)
            flat = trials.reshape(n, -1)
            mags = np.empty((B.shape[0] + n, flat.shape[1]))
            np.abs(B @ flat, out=mags[:-n])
            np.abs(flat, out=mags[-n:])
            # plain p-th powers unless the trip's largest modulus could
            # overflow a sum of them; then max-scaled ones, as lp_norm's
            overflow = mags.max() >= overflow_modulus
            if overflow:
                ratios = _column_norms(mags[:-n], p) / _column_norms(mags[-n:], p)
            else:
                mags **= p
                ratios = (mags[:-n].sum(axis=0) / mags[-n:].sum(axis=0)) ** (1.0 / p)
            ratios = ratios.reshape(idx.size, -1)
            j = ratios.argmax(axis=1)
            best = ratios[np.arange(idx.size), j]
            moved = best - v > h * h * v
            if moved.any():
                xs = trials[:, moved, j[moved]]
                xs = xs / (_column_norms(xs, p) if overflow else np.sum(np.abs(xs) ** p, axis=0) ** (1.0 / p))
                mv[:, moved] = xs - x[:, moved]
                x[:, moved] = xs
                v[moved] = best[moved]
            h *= np.where(moved, 1.25, 0.5)
            if h.min() < h_min:
                keep = h >= h_min
                X[:, idx], values[idx] = x, v
                idx, h, x, v, mv = idx[keep], h[keep], x[:, keep], v[keep], mv[:, keep]
        X[:, idx], values[idx] = x, v
        live = live[values[live] > before[live] + 1e-14]

    best_x = X[:, int(np.argmax(values))]
    return _finish(A, best_x / lp_norm(best_x, p), "oracle-grid", iterations, True)


def rank_one_exact(mu_vec, eta_vec, p, source=None, target=None) -> float:
    """Norm of xi -> (sum_j eta_j xi_j) * mu_vec as an operator from
    l^p(source weights) to l^p(target weights): the weighted p-norm of
    mu_vec times the dual norm of the functional eta."""
    p = float(p)
    q = conjugate_exponent(p)
    mu_vec = np.asarray(mu_vec, dtype=complex)
    eta_vec = np.asarray(eta_vec, dtype=complex)
    w_t = np.ones(len(mu_vec)) if target is None else target.weights
    w_s = np.ones(len(eta_vec)) if source is None else source.weights
    out_norm = lp_norm(mu_vec, p, w_t)
    if q == np.inf:
        dual_norm = float(np.max(np.abs(eta_vec) / w_s, initial=0.0))
    else:
        dual_norm = lp_norm(eta_vec, q, w_s ** (1.0 - q))
    return out_norm * dual_norm


@dataclass(frozen=True)
class NormSequence:
    """Norm lower bounds of one element, level by level."""

    levels: tuple
    results: tuple  # NormResult per level

    @property
    def values(self):
        return [r.estimate for r in self.results]


def norm_sequence(rep, a, n_max: int, restarts: int = 20, seed: int = 0) -> NormSequence:
    """Per-level norm lower bounds for a graded representation, from the
    element's t-depth to n_max.  Each level above the first passes
    power_estimate the previous level's witness, lifted through the
    isometric inclusion V_(N-1) -> V_N that the represented element
    leaves invariant, as an extra start.  That start already attains
    the previous value, so the values are nondecreasing in the level by
    construction, up to rounding (a nonnegative kernel takes |start|
    without Boyd iterations).  They converge upward to the norm in the
    completed algebra, so every value is a certified lower bound for
    that norm; a small step between two levels certifies nothing about
    the distance to it."""
    from .reps import evaluate

    lo = a.t_depth()
    if lo > n_max:
        raise ValueError(f"level range [{lo}, {n_max}] is empty")
    levels = tuple(range(lo, n_max + 1))
    results = []
    for level in levels:
        lifted = rep.inclusion(level - 1) @ results[-1].witness if results else None
        A = evaluate(rep, a, level)
        results.append(power_estimate(A, restarts=restarts, seed=seed, start=lifted))
    return NormSequence(levels=levels, results=tuple(results))
