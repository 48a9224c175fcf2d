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
x -> |x|^(p-1) * phase(x), globally convergent from a positive start
for entrywise-nonnegative kernels and run with multistart otherwise;
all starts iterate together as the columns of one block, on the CSR
kernel above SPARSE_MIN_SIZE entries and on a dense copy below.  A
sampling oracle with compass-search ascent, which never uses the Boyd
map, covers small source dimensions.  Every returned value is a
certified lower bound: the witness reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.stats import qmc

from .spatial import (
    OperatorMatrix,
    conjugate_exponent,
    vector_norm,
    weighted_to_unweighted,
)

ORACLE_MAX_DIM = 8
# Boyd runs on CSR above this many kernel entries and dense at or below
# it: CSR matvecs lose ~4x up to 64 x 32 and win ~27x at 1024 x 512.
SPARSE_MIN_SIZE = 2**14


@dataclass(frozen=True)
class NormResult:
    estimate: float
    certified_lower: float
    witness: np.ndarray  # in the weighted source coordinates
    method: str
    iterations: int
    converged: bool


def lp_norm(x, p: float) -> float:
    x = np.asarray(x)
    if p == np.inf:
        return float(np.max(np.abs(x), initial=0.0))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


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


def _column_norms(X: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(X) ** p, axis=0) ** (1.0 / p)


def _boyd_block(B, p, X0, tol, max_iter):
    """The fixed-point iteration from every column of X0 at once.

    Each column follows the single-start recurrence and its stopping
    rules (duality pairing, stall, max_iter) and leaves the block when
    it stops.  A zero image or a zero next iterate needs no test of its
    own: both come with z = 0, which the pairing rule (0 <= 0) stops.
    Returns per-column arrays (gamma, x, iterations, converged), where
    x is the column's best iterate.
    """
    q = conjugate_exponent(p)
    BH = B.conj().T
    if sparse.issparse(BH):
        BH = BH.tocsr()
    X = np.array(X0, dtype=complex)
    nx = _column_norms(X, p)
    if np.any(nx == 0):
        raise ValueError("zero start vector")
    X = X / nx
    k = X.shape[1]
    gammas, best_x = np.zeros(k), X.copy()
    iterations, converged = np.full(k, max_iter), np.zeros(k, dtype=bool)
    live = np.arange(k)
    gamma_prev = np.full(k, -1.0)
    for it in range(1, max_iter + 1):
        Y = B @ X
        gamma = _column_norms(Y, p)
        better = gamma > gammas[live]
        gammas[live[better]] = gamma[better]
        best_x[:, live[better]] = X[:, better]
        Z = BH @ _phase_power(Y, p - 1.0)
        znorm = _column_norms(Z, q)
        pairing = np.real(np.sum(Z.conj() * X, axis=0))
        stall = np.abs(gamma - gamma_prev) <= tol * gamma
        stop = (znorm <= pairing * (1.0 + tol)) | stall
        Xn = _phase_power(Z / np.maximum(np.abs(Z).max(axis=0), 1e-300), q - 1.0)
        nx = _column_norms(Xn, p)
        iterations[live[stop]] = it
        converged[live[stop]] = True
        go = ~stop
        live, X, gamma_prev = live[go], Xn[:, go] / nx[go], gamma[go]
        if live.size == 0:
            break
    return gammas, best_x, iterations, converged


def _unweighted_kernel(A: OperatorMatrix):
    """CSR kernel with the weights absorbed, D_nu^(1/p) A D_mu^(-1/p)."""
    left = A.target.weights ** (1.0 / A.p)
    right = A.source.weights ** (-1.0 / A.p)
    B = A.kernel.copy()
    rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    B.data = (left[rows] * B.data) * right[B.indices]
    return B


def _rank_one_sum_witness(B, p):
    """Unweighted extremal vector of the CSR kernel B when B is an l^p
    direct sum of rank-one blocks, else None.

    At most one nonzero per row: the columns have disjoint supports, so
    ||B x||^p = sum_x |x_x|^p ||B e_x||^p and the best basis vector is
    extremal.  At most one nonzero per column: the rows read disjoint
    coordinates, so ||B|| is the largest row q-norm, attained by the
    Hoelder extremizer conj(phase(b_i)) |b_i|^(q-1) of that row.
    """
    m, n = B.shape
    rows = np.repeat(np.arange(m), np.diff(B.indptr))
    nz = B.data != 0
    rows, cols, values = rows[nz], B.indices[nz], B.data[nz]
    x = np.zeros(n, dtype=complex)
    if np.bincount(rows, minlength=m).max() <= 1:
        sums = np.bincount(cols, weights=np.abs(values) ** p, minlength=n)
        x[int(np.argmax(sums))] = 1.0
        return x
    if np.bincount(cols, minlength=n).max() <= 1:
        q = conjugate_exponent(p)
        sums = np.bincount(rows, weights=np.abs(values) ** q, minlength=m)
        row = rows == int(np.argmax(sums))
        x[cols[row]] = _phase_power(values[row].conj(), q - 1.0)
        return x
    return None


def _finish(A: OperatorMatrix, x_unweighted, method, iterations, converged):
    """Translate an unweighted witness back and certify the bound."""
    mu = A.source.weights
    x = np.asarray(x_unweighted, dtype=complex) * mu ** (-1.0 / A.p)
    nx = vector_norm(A.source, x, A.p)
    if nx == 0:
        return NormResult(0.0, 0.0, x, method, iterations, converged)
    value = vector_norm(A.target, A.apply(x), A.p) / nx
    x = x / nx
    return NormResult(value, value, x, method, iterations, converged)


def power_estimate(
    A: OperatorMatrix,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-12,
    max_iter: int = 600,
) -> NormResult:
    """Best lower bound for the weighted p -> p norm of A."""
    p = A.p
    B = _unweighted_kernel(A)
    n = B.shape[1]
    if n == 0 or B.shape[0] == 0 or not np.any(B.data):
        return NormResult(0.0, 0.0, np.zeros(n, dtype=complex), "zero", 0, True)

    if p == 1.0:
        sums = abs(B).sum(axis=0)
        col = int(np.argmax(sums))
        x = np.zeros(n, dtype=complex)
        x[col] = 1.0
        return _finish(A, x, "exact-l1", 0, True)

    x = _rank_one_sum_witness(B, p)
    if x is not None:
        return _finish(A, x, "exact-rank-one-sum", 0, True)

    if p == 2.0:
        vh = np.linalg.svd(B.toarray())[2]
        return _finish(A, vh[0].conj(), "svd", 0, True)

    nonnegative = bool(not np.any(B.data.imag)) and bool(np.all(B.data.real >= 0))
    starts = [np.ones(n, dtype=complex)]
    if not nonnegative:
        for i in range(min(n, 4)):
            e = np.zeros(n, dtype=complex)
            e[i] = 1.0
            starts.append(e)
        rng = np.random.default_rng(seed)
        while len(starts) < max(restarts, 1):
            starts.append(
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
    if B.shape[0] * n <= SPARSE_MIN_SIZE:
        B = B.toarray()
    gammas, xs, iterations, converged = _boyd_block(
        B, p, np.stack(starts, axis=1), tol, max_iter
    )
    best = int(np.argmax(gammas))
    x = xs[:, best] if gammas[best] > 0.0 else np.ones(n, dtype=complex)
    method = "boyd-nonnegative" if nonnegative else "boyd-multistart"
    return _finish(A, x, method, int(iterations.sum()), bool(converged.all()))


def oracle_grid(
    A: OperatorMatrix,
    samples: int = 4096,
    seed: int = 0,
    starts: int = 10,
    rounds: int = 4,
) -> NormResult:
    """Independent brute-force lower bound for small source dimension:
    random plus low-discrepancy sphere sampling, then derivative-free
    local ascent from ``starts`` direction-diverse candidates at once,
    in up to ``rounds`` passes that each restart the search step.
    Deterministic for a given seed.  ``iterations`` counts compass
    iterations summed over the starts."""
    p = A.p
    B = weighted_to_unweighted(A)
    n = B.shape[1]
    if n > ORACLE_MAX_DIM:
        raise ValueError(f"oracle restricted to source dimension <= {ORACLE_MAX_DIM}")
    if n == 0 or B.shape[0] == 0 or not np.any(B):
        return NormResult(0.0, 0.0, np.zeros(n, dtype=complex), "oracle-grid", 0, True)

    rng = np.random.default_rng(seed)
    half = samples // 2
    X = rng.standard_normal((n, half)) + 1j * rng.standard_normal((n, half))
    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    pts = sob.random(samples - half) * 2.0 - 1.0
    X2 = (pts[:, :n] + 1j * pts[:, n:]).T
    X = np.concatenate([X, X2, np.eye(n, dtype=complex), np.ones((n, 1))], axis=1)

    norms_in = np.sum(np.abs(X) ** p, axis=0) ** (1.0 / p)
    keep = norms_in > 0
    X = X[:, keep] / norms_in[keep]
    norms_out = np.sum(np.abs(B @ X) ** p, axis=0) ** (1.0 / p)
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
    # halves.  It stops below 1e-13 or after 400 iterations (the cap
    # ends the creep on p = 1 ridges); each pass re-inflates h and a
    # start that a pass does not improve retires.
    X, values = X[:, picks], norms_out[picks]
    D = np.kron([1, -1, 1j, -1j], np.eye(n))
    live = np.arange(len(picks))
    iterations = 0
    for _ in range(rounds):
        before = values.copy()
        idx, h = live, np.full(live.size, 0.25)
        M = np.zeros_like(X)
        for _ in range(400):
            if idx.size == 0:
                break
            iterations += idx.size
            compass = X[:, idx, None] + h[None, :, None] * D[:, None, :]
            trials = np.concatenate([compass, compass + M[:, idx, None]], axis=2)
            flat = trials.reshape(n, -1)
            num = np.sum(np.abs(B @ flat) ** p, axis=0)
            den = np.sum(np.abs(flat) ** p, axis=0)
            ratios = ((num / den) ** (1.0 / p)).reshape(idx.size, -1)
            j = np.argmax(ratios, axis=1)
            best = ratios[np.arange(idx.size), j]
            moved = best - values[idx] > h * h * values[idx]
            rows = idx[moved]
            xs = trials[:, moved, j[moved]]
            xs = xs / np.sum(np.abs(xs) ** p, axis=0) ** (1.0 / p)
            M[:, rows] = xs - X[:, rows]
            X[:, rows] = xs
            values[rows] = best[moved]
            h = np.where(moved, 1.25 * h, 0.5 * h)
            idx, h = idx[h >= 1e-13], h[h >= 1e-13]
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
    out_norm = float(np.sum(w_t * np.abs(mu_vec) ** p) ** (1.0 / p))
    if q == np.inf:
        dual_norm = float(np.max(np.abs(eta_vec) / w_s, initial=0.0))
    else:
        dual_norm = float(np.sum(w_s ** (1.0 - q) * np.abs(eta_vec) ** q) ** (1.0 / q))
    return out_norm * dual_norm


@dataclass(frozen=True)
class NormSequence:
    levels: tuple
    results: tuple  # NormResult per level
    stabilized: bool

    @property
    def values(self):
        return [r.estimate for r in self.results]


def norm_sequence(
    rep,
    a,
    n_max: int,
    n_min: int | None = None,
    restarts: int = 20,
    seed: int = 0,
    stall_eps: float = 1e-3,
) -> NormSequence:
    """Per-level norm lower bounds for a graded representation; they are
    nondecreasing in the level and converge upward to the norm in the
    completed algebra, so the last value is a certified lower bound and
    the sequence is flagged stabilized once successive levels differ by
    less than stall_eps."""
    from .reps import evaluate

    depth = a.t_depth()
    lo = depth if n_min is None else max(n_min, depth)
    if lo > n_max:
        raise ValueError(f"level range [{lo}, {n_max}] is empty")
    levels = tuple(range(lo, n_max + 1))
    results = []
    for level in levels:
        A = evaluate(rep, a, level)
        results.append(power_estimate(A, restarts=restarts, seed=seed))
    stabilized = len(results) >= 2 and abs(
        results[-1].estimate - results[-2].estimate
    ) < stall_eps
    return NormSequence(levels=levels, results=tuple(results), stabilized=stabilized)
