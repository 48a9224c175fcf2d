"""Representations of Leavitt algebras on weighted sequence spaces at
finite truncation levels.

A GradedRep is a family of nested spaces V_0 subset V_1 subset ... with
generator actions s_j: V_N -> V_{N+1} and t_j: V_N -> V_{N-1}, together
with the isometric inclusions V_N -> V_{N+1}.  The two base models are
given by their s_j maps; each t_j follows from the reverse law (t_j is
the reverse of the spatial partial isometry s_j).  Derived models are
Fourier sums, block sums and Kronecker products of these.
Evaluation of an algebra element at level N restricts the represented
operator to V_N; because V_N is invariant under the monomial flow and
exhausts the space, the truncated norms increase to the true norm.

The relations t_j s_k = delta_jk and sum_j s_j t_j = 1 force
d * dim <= dim, so for d >= 2 no nonzero finite-dimensional space
carries them, and every representation here is graded.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .leavitt import AlgebraElement, AlgebraKind, leavitt, monomial, normal_form
from .measure import FiniteMeasureSpace, disjoint_union, product_space
from .spatial import (
    OperatorMatrix,
    Rejection,
    _csr_parts,
    checked_exponent,
    classify_idempotent,
    conjugate_exponent,
    detect,
    materialize,
    max_abs_difference,
    pairing_adjoint,
    reverse as reverse_system,
    vector_norm,
)


class GradedRep:
    """Level-graded representation; all fields fixed at construction."""

    def __init__(
        self,
        kind: AlgebraKind,
        p: float,
        space_fn,
        s_fn,
        t_fn,
        inclusion_fn,
        label: str,
    ):
        self.kind = kind
        self.p = checked_exponent(p)
        self.label = label
        self.space = lru_cache(maxsize=None)(space_fn)
        self.s_matrix = lru_cache(maxsize=None)(s_fn)
        self.t_matrix = lru_cache(maxsize=None)(t_fn)
        self.inclusion = lru_cache(maxsize=None)(inclusion_fn)

    @property
    def generators(self):
        return tuple(range(1, self.kind.d + 1))

    def generator_operator(self, family: str, j: int, level: int) -> OperatorMatrix:
        if family == "s":
            mat = self.s_matrix(j, level)
            return OperatorMatrix(self.space(level), self.space(level + 1), self.p, mat)
        if family == "t":
            if level < 1:
                raise ValueError("t lowers the level; need level >= 1")
            mat = self.t_matrix(j, level)
            return OperatorMatrix(self.space(level), self.space(level - 1), self.p, mat)
        raise ValueError("family must be 's' or 't'")

    def __repr__(self):
        return f"GradedRep({self.label}, {self.kind}, p={self.p:g})"


# -- constructors ---------------------------------------------------------

# The twists re-check the defining relations up to this level; the
# Fourier twist fails above a residual of _FOURIER_RESIDUAL_TOL.
_TWIST_CHECK_LEVEL = 2
_FOURIER_RESIDUAL_TOL = 1e-10


def _phased_permutation(value, rows, cols, shape):
    """CSR matrix with the one constant ``value`` at each (rows[i], cols[i]),
    at most one per row, built from the index arrays directly."""
    index = sparse.get_index_dtype(maxval=max(len(rows), *shape))
    values = np.full(len(rows), value, dtype=complex)
    return sparse.csr_matrix(_csr_parts(rows, np.asarray(cols), values, shape[0], index), shape=shape)


def _base_rep(kind: AlgebraKind, p: float, modulus: float, s_map, space_fn, inclusion_map, label):
    """A base model given by its s_j maps: s_map(j, N) is the pair of
    index arrays (rows, cols) where s_j on V_N carries ``modulus``.  By
    the reverse law, t_j on V_N is the map of s_j on V_{N-1} with rows
    and columns swapped and modulus 1/modulus."""
    d = kind.d

    def s_fn(j, level):
        n = d**level
        return _phased_permutation(modulus, *s_map(j, level), (d * n, n))

    def t_fn(j, level):
        m = d ** (level - 1)
        rows, cols = s_map(j, level - 1)
        return _phased_permutation(1.0 / modulus, cols, rows, (m, d * m))

    def inclusion_fn(level):
        n = d**level
        return _phased_permutation(1.0, *inclusion_map(level), (d * n, n))

    return GradedRep(kind, p, space_fn, s_fn, t_fn, inclusion_fn, label)


def interval_rep(d: int, p: float) -> GradedRep:
    """Subdivision picture of L_d: V_N is the space of step functions on
    d^N equal subintervals of [0,1] (atoms of weight d^-N); s_j squeezes
    a function into the j-th subinterval with the isometric factor
    d^(1/p), and t_j stretches that subinterval back out."""
    p = checked_exponent(p)
    return _base_rep(
        leavitt(d), p, d ** (1.0 / p),
        lambda j, level: ((j - 1) * d**level + np.arange(d**level), np.arange(d**level)),
        lambda level: FiniteMeasureSpace(range(d**level), [float(d) ** (-level)] * d**level),
        lambda level: (np.arange(d ** (level + 1)), np.repeat(np.arange(d**level), d)),
        f"interval(d={d})",
    )


def sequence_rep(d: int, p: float) -> GradedRep:
    """Coordinate picture of L_d on l^p: s_j sends the n-th basis vector
    to basis vector d(n-1)+j; V_N is the span of the first d^N
    coordinates with counting weights."""
    return _base_rep(
        leavitt(d), p, 1.0,
        lambda j, level: (d * np.arange(d**level) + j - 1, np.arange(d**level)),
        lambda level: FiniteMeasureSpace(range(1, d**level + 1), [1.0] * d**level),
        lambda level: (np.arange(d**level), np.arange(d**level)),
        f"sequence(d={d})",
    )


# i^k: the roots of unity at the quarter turns
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, 0 - 1j)


def _root_of_unity(d: int, n: int) -> complex:
    """w^n for w = exp(2 pi i / d): exact at the quarter turns (4n a
    multiple of d), where cmath's w = -1 + 1.2e-16i at d = 2 would leave
    a residue, and the power of cmath's w elsewhere."""
    if 4 * n % d == 0:
        return _QUARTER_TURNS[4 * n // d % 4]
    return cmath.exp(2j * cmath.pi / d) ** n


def fourier_twist(rep: GradedRep) -> GradedRep:
    """Pre-compose with the Fourier automorphism: the new generator
    images are v_k = d^(-1/p) sum_j w^(jk) s_j and
    w_k = d^(-1/q) sum_j w^(-jk) t_j with w = exp(2 pi i / d), exact at
    the quarter turns.  The defining relations are re-verified
    numerically on the first levels.
    """
    d = rep.kind.d
    p = rep.p
    q = conjugate_exponent(p)
    cs = d ** (-1.0 / p)
    ct = 1.0 if q == np.inf else d ** (-1.0 / q)

    def s_fn(k, level):
        return cs * sum(
            _root_of_unity(d, j * k) * rep.s_matrix(j, level) for j in range(1, d + 1)
        )

    def t_fn(k, level):
        return ct * sum(
            _root_of_unity(d, -j * k) * rep.t_matrix(j, level) for j in range(1, d + 1)
        )

    out = GradedRep(
        rep.kind, p, rep.space, s_fn, t_fn, rep.inclusion,
        f"fourier({rep.label})",
    )
    residual = check_relations(out, _TWIST_CHECK_LEVEL)
    if residual > _FOURIER_RESIDUAL_TOL:
        raise ValueError(f"twisted relations fail: residual {residual:.3e}")
    return out


def twist_matrix(d: int, p: float) -> np.ndarray:
    """The d x d matrix u with u[j,k] = d^(-1/p) w^(jk), so the twisted
    s_lambda equals s_(u lambda); w^(jk) is exact at the quarter turns."""
    jk = np.outer(np.arange(1, d + 1), np.arange(1, d + 1))
    powers = cmath.exp(2j * cmath.pi / d) ** jk
    quarter = 4 * jk % d == 0
    powers[quarter] = np.array(_QUARTER_TURNS)[4 * jk[quarter] // d % 4]
    return d ** (-1.0 / float(p)) * powers


def fourier_twist_table(d: int, p: float, lam) -> dict:
    """Compare ||lambda||_p^p with ||u lambda||_p^p for the twist matrix."""
    lam = np.asarray(lam, dtype=complex)
    u = twist_matrix(d, p)
    ulam = u @ lam
    return {
        "lambda_norm_p": float(np.sum(np.abs(lam) ** p)),
        "twisted_norm_p": float(np.sum(np.abs(ulam) ** p)),
        "u_lambda": ulam,
    }


def direct_sum_p(reps) -> GradedRep:
    """Block-diagonal sum on the disjoint-union spaces (the l^p norm on
    the sum is the p-combination of the component norms)."""
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum")
    first = reps[0]
    for r in reps[1:]:
        if r.kind != first.kind or r.p != first.p:
            raise ValueError("direct sum needs matching kind and exponent")

    def blocks(name):
        return lambda *key: sparse.block_diag(
            [getattr(r, name)(*key) for r in reps], format="csr"
        )

    label = " (+) ".join(r.label for r in reps)
    return GradedRep(
        first.kind, first.p, lambda level: disjoint_union([r.space(level) for r in reps]),
        blocks("s_matrix"), blocks("t_matrix"), blocks("inclusion"), f"sum[{label}]",
    )


def _kron_rep(rep: GradedRep, aux: FiniteMeasureSpace, s_factor, t_factor, label) -> GradedRep:
    """rep tensored with the auxiliary space: s_j x s_factor, t_j x
    t_factor, and the inclusions x the identity."""
    eye = sparse.identity(len(aux), dtype=complex, format="csr")
    return GradedRep(
        rep.kind, rep.p, lambda level: product_space(rep.space(level), aux),
        lambda j, level: sparse.kron(rep.s_matrix(j, level), s_factor, format="csr"),
        lambda j, level: sparse.kron(rep.t_matrix(j, level), t_factor, format="csr"),
        lambda level: sparse.kron(rep.inclusion(level), eye, format="csr"),
        label,
    )


def tensor_identity(rep: GradedRep, aux: FiniteMeasureSpace) -> GradedRep:
    """Tensor with the identity on a fixed auxiliary space; norms of all
    represented elements are unchanged."""
    if len(aux) < 1:
        raise ValueError("auxiliary space must have at least one atom")
    eye = sparse.identity(len(aux), dtype=complex, format="csr")
    return _kron_rep(rep, aux, eye, eye, f"tensor[{rep.label}, {len(aux)}]")


def free_rep(rep: GradedRep, n: int) -> GradedRep:
    """Tensor the generators with the cyclic shift on l^p(Z/nZ): s_j
    becomes s_j x shift and t_j becomes t_j x shift^(-1).  The blocks
    V x delta_m form an approximately free partition, and a homogeneous
    element a of degree k is represented as rep(a) x shift^k."""
    if n < 1:
        raise ValueError("cycle length must be at least 1")
    rows, cols = (np.arange(n) + 1) % n, np.arange(n)
    return _kron_rep(
        rep, FiniteMeasureSpace(range(n), [1.0] * n), _phased_permutation(1.0, rows, cols, (n, n)),
        _phased_permutation(1.0, cols, rows, (n, n)),
        f"free[{rep.label}, n={n}]",
    )


def dual_rep(rep: GradedRep) -> GradedRep:
    """Dual representation on the conjugate exponent: generator images
    are the pairing-adjoints with the s and t roles swapped."""
    if rep.p == 1.0:
        raise ValueError("duals of p = 1 representations are unsupported")
    q = conjugate_exponent(rep.p)

    def s_fn(j, level):
        # adjoint of t_j: V_{level+1} -> V_level, raising the level
        return pairing_adjoint(rep.generator_operator("t", j, level + 1)).kernel

    def t_fn(j, level):
        # adjoint of s_j: V_{level-1} -> V_level, lowering the level
        return pairing_adjoint(rep.generator_operator("s", j, level - 1)).kernel

    return GradedRep(rep.kind, q, rep.space, s_fn, t_fn, rep.inclusion, f"dual({rep.label})")


def twist_by_invertible(rep: GradedRep, u) -> GradedRep:
    """Conjugation-style twist: s_j -> u s_j and t_j -> t_j u^(-1).

    u is a scalar or a callable level -> matrix on V_level; it must
    respect the nesting (commute with the inclusions) for truncated
    evaluation to stay consistent, which holds for scalars and blockwise
    scalars on direct sums.  The condition number of u is recorded on
    the result as ``u_condition``.
    """
    if np.isscalar(u):
        scalar = complex(u)
        if scalar == 0:
            raise ValueError("u is singular")
        u_of = lambda level: scalar * sparse.identity(
            len(rep.space(level)), dtype=complex, format="csr"
        )
        u_inv_of = lambda level: (1.0 / scalar) * sparse.identity(
            len(rep.space(level)), dtype=complex, format="csr"
        )
        cond = 1.0
    else:
        dense = {
            level: np.asarray(u(level), dtype=complex) for level in range(_TWIST_CHECK_LEVEL + 2)
        }
        cond = max(float(np.linalg.cond(m)) for m in dense.values())
        if not np.isfinite(cond):
            raise ValueError("u is singular")
        u_of = lambda level: sparse.csr_matrix(np.asarray(u(level), dtype=complex))
        u_inv_of = lambda level: sparse.csr_matrix(
            np.linalg.inv(np.asarray(u(level), dtype=complex))
        )

    def s_fn(j, level):
        return (u_of(level + 1) @ rep.s_matrix(j, level)).tocsr()

    def t_fn(j, level):
        return (rep.t_matrix(j, level) @ u_inv_of(level)).tocsr()

    out = GradedRep(
        rep.kind, rep.p, rep.space, s_fn, t_fn, rep.inclusion, f"twist({rep.label})"
    )
    out.u_condition = cond
    residual = check_relations(out, _TWIST_CHECK_LEVEL)
    if residual > 1e-8 * max(1.0, cond):
        raise ValueError(f"twisted relations fail: residual {residual:.3e}")
    return out


# -- evaluation -----------------------------------------------------------


# Groups of fewer terms are summed term by term: with two terms, one
# stacked product measured ~1.4x slower than two single products
# (evaluate of s1*t2 + s2*t1 + t1*t2 on interval levels 2..10, 2-core x86).
_STACK_MIN = 3


def _mm(a, b):
    """a @ b, with None standing for an identity."""
    if a is None:
        return b
    if b is None:
        return a
    return a @ b


def _or_eye(mat, n: int):
    return sparse.identity(n, dtype=complex, format="csr") if mat is None else mat


def evaluate(rep: GradedRep, a: AlgebraElement, level: int, reduce: bool = True) -> OperatorMatrix:
    """Matrix of the represented element on V_level.

    The element is put in canonical form (unless ``reduce`` is False,
    which assembles the raw terms; the result agrees because the
    representation satisfies the defining relations).  A monomial
    s_alpha t_beta walks down l(beta) levels from V_level to the middle
    level m = level - l(beta), up l(alpha), and is padded with inclusions
    so that every term lands in V_top, top = level + k_max.

    Factors are shared through two tries of cached products, one matmul
    per trie node: T_beta on V_level along the t-words, and Incl * S_alpha
    from V_m to V_top along the s-words, keyed by the level each s-prefix
    starts from.  Terms are grouped by l(beta), which fixes m.  A group of
    at least _STACK_MIN terms is assembled at once as
    Scat @ (C kron I_m) @ Tcat, where Scat puts its distinct
    Incl * S_alpha side by side, Tcat stacks its distinct T_beta, and C is
    its coefficient matrix; a smaller group is a sum of single products.
    None stands for an identity factor throughout.
    """
    if a.kind != rep.kind:
        raise ValueError(f"element kind {a.kind} does not match rep kind {rep.kind}")
    if reduce:
        a = normal_form(a)

    depth = a.t_depth()
    if level < depth:
        raise ValueError(
            f"level {level} is too small for the element's t-depth {depth}"
        )
    top = level + max((len(al) - len(be) for (al, be) in a.terms), default=0)
    n_in = len(rep.space(level))
    t_cache: dict = {(): None}
    s_cache: dict = {}

    def t_word(beta):
        if beta not in t_cache:
            t_cache[beta] = _mm(rep.t_matrix(beta[-1], level - len(beta) + 1), t_word(beta[:-1]))
        return t_cache[beta]

    def s_word(alpha, start):  # Incl * S_alpha from V_start to V_top
        key = (alpha, start)
        if key not in s_cache:
            if alpha:
                s_cache[key] = _mm(s_word(alpha[:-1], start + 1), rep.s_matrix(alpha[-1], start))
            elif start < top:
                s_cache[key] = _mm(s_word((), start + 1), rep.inclusion(start))
            else:
                s_cache[key] = None
        return s_cache[key]

    groups: dict = {}
    for (alpha, beta), coeff in a.terms.items():
        groups.setdefault(len(beta), {})[(alpha, beta)] = coeff.to_complex()
    parts = []
    for length, terms in groups.items():
        mid = level - length
        if len(terms) < _STACK_MIN:
            parts.extend(
                c * _or_eye(_mm(s_word(alpha, mid), t_word(beta)), n_in)
                for (alpha, beta), c in terms.items()
            )
            continue
        alphas = {al: i for i, al in enumerate(dict.fromkeys(al for al, _ in terms))}
        betas = {be: i for i, be in enumerate(dict.fromkeys(be for _, be in terms))}
        n_mid = len(rep.space(mid))
        rows, cols = (
            (np.array(index)[:, None] * n_mid + np.arange(n_mid)).ravel()
            for index in zip(*((alphas[al], betas[be]) for al, be in terms))
        )
        c_kron = sparse.csr_matrix(
            (np.repeat(list(terms.values()), n_mid), (rows, cols)),
            shape=(len(alphas) * n_mid, len(betas) * n_mid),
        )
        scat = sparse.hstack([_or_eye(s_word(al, mid), n_mid) for al in alphas], format="csr")
        tcat = sparse.vstack([_or_eye(t_word(be), n_in) for be in betas], format="csr")
        parts.append(scat @ c_kron @ tcat)
    if parts:
        total = sum(parts[1:], parts[0])
    else:
        total = sparse.csr_matrix((len(rep.space(top)), n_in), dtype=complex)
    return OperatorMatrix(rep.space(level), rep.space(top), rep.p, total)


def check_relations(rep: GradedRep, max_level: int) -> float:
    """Max residual of the defining relations on levels up to max_level:
    t_j s_k = delta_{jk} on V_N for N < max_level and, for Leavitt
    kinds, sum_j s_j t_j = 1 on V_N for 1 <= N <= max_level."""

    def sparse_max(mat) -> float:
        return float(np.abs(mat.data).max(initial=0.0))

    worst = 0.0
    gens = rep.generators
    for level in range(0, max_level):
        n = len(rep.space(level))
        eye = sparse.identity(n, dtype=complex, format="csr")
        ss = {k: rep.s_matrix(k, level) for k in gens}
        ts = {j: rep.t_matrix(j, level + 1) for j in gens}
        for j in gens:
            for k in gens:
                prod = ts[j] @ ss[k]
                residual = prod - eye if j == k else prod
                worst = max(worst, sparse_max(residual))
    if rep.kind.has_sum_relation:
        for level in range(1, max_level + 1):
            n = len(rep.space(level))
            eye = sparse.identity(n, dtype=complex, format="csr")
            acc = None
            for j in gens:
                term = rep.s_matrix(j, level - 1) @ rep.t_matrix(j, level)
                acc = term if acc is None else acc + term
            worst = max(worst, sparse_max(acc - eye))
    return worst


def _reverse_law_gap(rep: GradedRep, s: OperatorMatrix, j: int, level: int) -> float | None:
    """Max deviation of the stored t_j on V_{level+1} from the reverse of
    the spatial system that the detector recovers from s = s_j on
    V_level, or None unless s_j is a spatial isometry (accepted, spatial,
    with full domain)."""
    res = detect(s)
    if not (res.accepted and res.spatial and len(res.system.E) == len(s.source)):
        return None
    t_expected = materialize(reverse_system(res.system), rep.p)
    t_stored = rep.generator_operator("t", j, level + 1)
    return max_abs_difference(t_expected.kernel, t_stored.kernel)


# -- spatiality report ------------------------------------------------------

# relative tolerance of the report's norm and isometry conditions
_REPORT_NORM_TOL = 1e-8


@dataclass(frozen=True)
class Condition:
    value: bool | None  # None = not decidable with the available tools
    note: str = ""
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpatialityReport:
    label: str
    p: float
    depth: int
    seed: int
    conditions: dict
    violations: tuple  # implication-consistency audit; empty = consistent

    def __getitem__(self, name: str) -> Condition:
        return self.conditions[name]

    def summary(self) -> str:
        lines = [f"spatiality report for {self.label} (p={self.p:g}, depth={self.depth})"]
        for name, cond in self.conditions.items():
            shown = "undecided" if cond.value is None else str(cond.value)
            note = f"  [{cond.note}]" if cond.note else ""
            lines.append(f"  {name:32s} {shown}{note}")
        if self.violations:
            lines.append("  CONSISTENCY VIOLATIONS: " + "; ".join(self.violations))
        return "\n".join(lines)


def _isometry_scale(A: OperatorMatrix, tol: float, data=None) -> list:
    """For each row of ``data``, the values of a kernel on the CSR
    pattern of A (A's own values by default): the c >= 0 with
    kernel = c * V for a full-domain isometry V, else None.

    c is the largest column ratio, and every column ratio must be within
    tol * c of it.  For p != 2, V is isometric iff its columns have
    pairwise disjoint supports (the equality case of Clarkson's
    inequality forces disjointness; disjointness makes the norm a p-sum
    over columns).  This is weaker than the detector's block-constant
    semispatial form: an isometry may carry non-constant column moduli.
    At p = 2 the weighted Gram identity V^H D_nu V = D_mu is exact and
    disjointness is not necessary.  An explicit zero only adds zeros to
    the sums, so a stacked kernel gets the scale that its nonzeros get.
    """
    from .pnorm import _stacked_bincount

    K = A.kernel
    data = K.data[None] if data is None else data
    m, n = K.shape
    mags = np.abs(data)
    tops = mags.max(axis=1, initial=0.0)
    rows = np.repeat(np.arange(m), np.diff(K.indptr))
    # the weighted column p-sums of the moduli scaled by their maximum,
    # as in lp_norm, so a large entry or a large p cannot overflow to inf;
    # a zero kernel keeps its zero moduli and gets c = 0
    terms = mags / np.where(tops > 0.0, tops, 1.0)[:, None]
    terms **= A.p
    terms *= A.target.weights[rows]
    sums = _stacked_bincount(K.indices, terms, n)
    ratios = tops[:, None] * sums ** (1.0 / A.p) / A.source.weights ** (1.0 / A.p)
    cs = ratios.max(axis=1, initial=0.0)
    off = np.abs(ratios - cs[:, None]).max(axis=1, initial=0.0) > tol * cs
    scales = [None if bad else float(c) for c, bad in zip(cs, off)]
    if A.p == 2.0:
        target, source = (sparse.diags_array(sp.weights) for sp in (A.target, A.source))
        for i, c in enumerate(scales):
            if c:
                V = sparse.csr_array((data[i], K.indices, K.indptr), shape=K.shape) / c
                if max_abs_difference((V.conj().T @ target) @ V, source) > tol * 10:
                    scales[i] = None
        return scales
    cs = np.where(cs > 0.0, cs, 1.0)[:, None]
    # the moduli of each kernel / c above a cut: a row kept twice is a
    # row shared by two columns
    kept = mags / cs > 1e-12 * np.maximum(1.0, tops[:, None] / cs)
    shared = _stacked_bincount(rows, kept, m).max(axis=1, initial=0.0) > 1
    return [None if share else c for c, share in zip(scales, shared)]


class _Combinations:
    """The kernels sum_j lambda_j K_j of one generator family, one per
    coefficient vector lambda, on the union CSR pattern of the
    generator kernels K_j, which the operator ``union`` holds (its
    values count the kernels at each entry and are not read).

    Row i of ``data`` holds the values of the i-th kernel, formed as
    scipy sums the K_j: the products K_j * lambda_j added in j order.
    So each value is that sum's value, and an exact zero is an entry
    that the sum drops; ``full`` lists the kernels that drop none."""

    def __init__(self, ops: dict, lams):
        kernels = [op.kernel for op in ops.values()]
        first = next(iter(ops.values()))
        m, n = first.shape
        # the union as a scipy sum of the patterns (it counts the kernels
        # at each entry, so it drops none); each kernel's entries are found
        # in it by their row-major keys, sorted in both
        patterns = [
            sparse.csr_array((np.ones(K.nnz), K.indices, K.indptr), shape=K.shape)
            for K in kernels
        ]
        union = sum(patterns[1:], patterns[0])
        keys = np.repeat(np.arange(m), np.diff(union.indptr)) * n + union.indices
        coeffs = np.zeros((len(kernels), union.nnz), dtype=complex)
        for j, K in enumerate(kernels):
            at = np.searchsorted(keys, np.repeat(np.arange(m), np.diff(K.indptr)) * n + K.indices)
            coeffs[j, at] = K.data
        # one row at a time: a broadcast product would buffer the stack
        self.data = np.empty((len(lams), union.nnz), dtype=complex)
        for row, lam in zip(self.data, lams):
            np.multiply(coeffs[0], complex(lam[0]), out=row)
            for j in range(1, len(kernels)):
                row += coeffs[j] * complex(lam[j])
        self.full = np.flatnonzero(np.all(self.data != 0, axis=1))
        self.union = OperatorMatrix._own(first.source, first.target, first.p, union)

    def operator(self, i: int) -> OperatorMatrix:
        """The i-th kernel as an operator, without its exact zeros."""
        K = self.union.kernel
        values, indices, indptr = self.data[i], K.indices, K.indptr
        keep = values != 0
        if not keep.all():
            values, indices = values[keep], indices[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        kernel = sparse.csr_array((values, indices, indptr), shape=K.shape)
        return OperatorMatrix._own(self.union.source, self.union.target, self.union.p, kernel)

    def exact_witnesses(self) -> dict:
        """i -> the witness of power_estimate's exact rank-one-sum rule for
        the i-th kernel, for each kernel in ``full`` whose values the
        weights do not absorb to zero, when the union pattern is a
        rank-one sum; {} at p = 1, where power_estimate's column-sum rule
        comes first.  The weights are absorbed as in unweighted_kernel."""
        from .pnorm import _rank_one_sum_witness

        A = self.union
        if A.p == 1.0:
            return {}
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.kernel.indptr))
        left = (A.target.weights ** (1.0 / A.p))[rows]
        right = (A.source.weights ** (-1.0 / A.p))[A.kernel.indices]
        full = self.full
        weighted = self.data[full]
        for row in weighted:
            row *= left
            row *= right
        kept = np.all(weighted != 0, axis=1)
        if not kept.all():
            full, weighted = full[kept], weighted[kept]
        X = _rank_one_sum_witness(A.kernel, A.p, weighted)
        return {} if X is None else dict(zip(full.tolist(), X))

    def exact_norms(self) -> dict:
        """i -> the norm that _finish certifies from the i-th kernel's
        exact witness, for every kernel in exact_witnesses, by stacked
        passes (pnorm._finish_values) over 16 kernels at a time, which
        bounds the stacked temporaries: one pass over the up to 53 exact
        s-kernels of an exact-audit report raised its peak RSS by about
        0.5 MB."""
        from .pnorm import _finish_values

        witnesses = self.exact_witnesses()
        index = list(witnesses)
        values = []
        for start in range(0, len(index), 16):
            chunk = index[start:start + 16]
            values += _finish_values(self.union, [witnesses[i] for i in chunk], self.data[chunk])
        return dict(zip(index, values))


def spatial_condition(rep: GradedRep, level: int, s_ops=None) -> Condition:
    """The detector must accept each s_j on V_level (from ``s_ops``, if
    given) as a spatial isometry, and the reverse of its system must be
    t_j.  A failure at p = 2 is undecided: the detector's rejection is
    not a proof there."""
    for j in rep.generators:
        s = rep.generator_operator("s", j, level) if s_ops is None else s_ops[j]
        gap = _reverse_law_gap(rep, s, j, level)
        if gap is None:
            witness = {"generator": f"s_{j}", "reason": "not a spatial isometry"}
        elif gap > 1e-9:
            witness = {"generator": f"t_{j}", "reason": "reverse law fails"}
        else:
            continue
        if rep.p == 2.0:
            return Condition(None, note="not decidable by detector at p = 2")
        return Condition(False, note="detector + reverse law", witness=witness)
    return Condition(True, note=("p = 2: " if rep.p == 2.0 else "") + "detector + reverse law")


def _first_failure(cases, witness) -> dict:
    """The first nonempty ``witness(case)``, trying no case after it; else {}."""
    return next(filter(None, map(witness, cases)), {})


def spatiality_report(
    rep: GradedRep, depth: int = 2, seed: int = 0, samples: int = 50
) -> SpatialityReport:
    """Decide the representation-class conditions at a truncation level.

    The norm and isometry conditions share one seeded list of coefficient
    vectors: the standard basis e_1..e_d first, then (1, ..., d), then
    ``samples`` random vectors (sampling is declared in the notes, not
    hidden).  At lambda = e_j, s_lambda is s_j and t_lambda is t_j, so
    the generator conditions read the basis entries.  The values of every
    s_lambda, and of the t_lambda on the prefix that p_standard_t reads,
    are formed at once on their family's union pattern (_Combinations).
    The isometry scales of all s_lambda, power_estimate's exact
    rank-one-sum witnesses and the norms that those witnesses certify
    are computed over those stacked values, 16 kernels per pass; a norm
    whose combination drops an entry or leaves that exact rule is
    estimated by power_estimate, once, when a condition first needs it.
    Each condition names its first failure in scan order.  Spatiality
    is ``spatial_condition``.
    """
    from .pnorm import lp_norm, power_estimate

    if depth < 1:
        raise ValueError(f"truncation level must be at least 1, got {depth}")
    p = rep.p
    d = rep.kind.d
    gens = rep.generators
    rng = np.random.default_rng(seed)
    ops = {fam: {j: rep.generator_operator(fam, j, depth) for j in gens} for fam in "st"}
    s_ops = ops["s"]
    lams = [*np.eye(d), np.arange(1, d + 1).astype(complex)]
    lams += [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(samples)]
    # the t family is read only on its p_standard_t prefix
    combos = {
        "s": _Combinations(s_ops, lams),
        "t": _Combinations(ops["t"], lams[: d + 1 + samples // 2]),
    }
    exact = {fam: combo.exact_norms() for fam, combo in combos.items()}

    @lru_cache(maxsize=None)
    def norm(fam: str, i: int) -> float:
        if i in exact[fam]:
            return exact[fam][i]
        return power_estimate(combos[fam].operator(i), restarts=8, seed=seed).estimate

    scales = _isometry_scale(combos["s"].union, _REPORT_NORM_TOL, combos["s"].data)

    conditions: dict = {}
    # contractive on generators; the witness is the first of s_1, t_1, s_2, ...
    # within 1e-12 relative of the largest norm, so rounding does not break ties
    norms = {f"{fam}_{j}": norm(fam, j - 1) for j in gens for fam in "st"}
    largest = max(norms.values())
    named = next(name for name, est in norms.items() if est >= largest * (1.0 - 1e-12))
    conditions["contractive_on_generators"] = Condition(
        largest <= 1.0 + _REPORT_NORM_TOL,
        note="largest generator norm estimate",
        witness={"generator": named, "norm": largest},
    )

    fi = _first_failure(range(d), lambda i: (
        scales[i] is None or abs(scales[i] - 1.0) > _REPORT_NORM_TOL
    ) and {"generator": f"s_{i + 1}"})
    conditions["forward_isometric"] = Condition(not fi, witness=fi)

    # strong forward isometry: each s_lambda is a multiple of an isometry
    sfi = dict(fi) or _first_failure(
        range(len(lams)), lambda i: scales[i] is None and {"lambda": [str(z) for z in lams[i]]}
    )
    conditions["strongly_forward_isometric"] = Condition(
        not sfi, note=f"standard basis plus {samples} seeded samples", witness=sfi
    )

    # disjoint ranges
    supports = {}
    for j, op in s_ops.items():
        rows = np.repeat(np.arange(op.kernel.shape[0]), np.diff(op.kernel.indptr))
        supports[j] = set(rows[np.abs(op.kernel.data) > 1e-12])

    def shared_row(kj):
        shared = supports[kj[0]] & supports[kj[1]]
        return shared and {"generators": [f"s_{k}" for k in kj], "coordinate": str(min(shared))}

    overlap = _first_failure(((k, j) for j in gens for k in gens[: j - 1]), shared_row)
    conditions["disjoint"] = Condition(not overlap, witness=overlap)
    conditions["spatial"] = spatial_condition(rep, depth, s_ops)

    # p-standard: span(s_1..s_d) at p, span(t_1..t_d) at q on a shorter prefix
    for fam, exponent, count, key in (
        ("s", p, len(lams), "lambda"),
        ("t", conjugate_exponent(p), d + 1 + samples // 2, "gamma"),
    ):
        def off(i):
            est, expected = norm(fam, i), lp_norm(lams[i], exponent)
            if abs(est - expected) > _REPORT_NORM_TOL * max(1.0, expected):
                return {key: [str(z) for z in lams[i]], "norm": est, "expected": expected}

        ps = _first_failure(range(count), off)
        conditions[f"p_standard_{fam}"] = Condition(not ps, witness=ps)

    # row isometry, on random rows drawn one at a time
    n_in = len(s_ops[1].source)

    def row_gap(_):
        xis = rng.standard_normal((d, n_in)) + 1j * rng.standard_normal((d, n_in))
        out = sum(s_ops[j].apply(xis[j - 1]) for j in gens)
        lhs = vector_norm(s_ops[1].target, out, p) ** p
        rhs = sum(vector_norm(s_ops[1].source, xis[j - 1], p) ** p for j in gens)
        if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
            return {"lhs": lhs, "rhs": rhs}

    row = _first_failure(range(max(8, samples // 2)), row_gap)
    conditions["row_isometry"] = Condition(not row, witness=row)

    # spatial restriction to the matrix-unit subalgebra: the diagonal
    # units must be idempotents whose supports partition the space, and
    # only then is each e_jk tested for contractivity; each unit is
    # evaluated once
    @lru_cache(maxsize=None)
    def unit(j, k) -> OperatorMatrix:
        return evaluate(rep, monomial(rep.kind, (j,), (k,)), depth)

    def unit_gap(jk):
        est = power_estimate(unit(*jk), restarts=4, seed=seed).estimate
        if est > 1.0 + _REPORT_NORM_TOL:
            return {"unit": "e_{}{}".format(*jk), "norm": est}

    def md_witness() -> dict:
        diagonal = []
        for j in gens:
            res = classify_idempotent(unit(j, j), tol=1e-9)
            if isinstance(res, Rejection):
                return {"unit": f"e_{j}{j}", "reason": res.reason}
            diagonal.extend(res)
        atoms = rep.space(depth).atoms
        if len(diagonal) != len(atoms) or set(diagonal) != set(atoms):
            return {"reason": "diagonal supports do not partition the space"}
        return _first_failure(((j, k) for j in gens for k in gens), unit_gap)

    md = md_witness()
    note = "diagonal multiplication test"
    conditions["md_restriction_spatial"] = Condition(not md, note=note, witness=md)
    violations = tuple(_audit(conditions))
    return SpatialityReport(rep.label, p, depth, seed, conditions, violations)


_IMPLICATIONS = [
    ("spatial", "contractive_on_generators"),
    ("spatial", "forward_isometric"),
    ("spatial", "strongly_forward_isometric"),
    ("spatial", "disjoint"),
    ("spatial", "p_standard_s"),
    ("spatial", "p_standard_t"),
    ("spatial", "row_isometry"),
    ("spatial", "md_restriction_spatial"),
    ("contractive_on_generators", "forward_isometric"),
    ("strongly_forward_isometric", "forward_isometric"),
]


def _audit(conditions: dict) -> list:
    """Check the known implications between conditions; undecided values
    are skipped.  Whether strong forward isometry forces contractivity
    for finite d is open, so no edge is audited (or inferred) there."""
    out = []
    for premise, conclusion in _IMPLICATIONS:
        a = conditions[premise].value
        b = conditions[conclusion].value
        if a is True and b is False:
            out.append(f"{premise} does not imply {conclusion}")
    return out
