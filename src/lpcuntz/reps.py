"""Representations of Leavitt algebras on weighted sequence spaces at
finite truncation levels.

A GradedRep is a family of nested spaces V_0 subset V_1 subset ... with
generator actions s_j: V_N -> V_{N+1} and t_j: V_N -> V_{N-1} given by
closed-form rules, together with the isometric inclusions V_N -> V_{N+1}.
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
        self.p = float(p)
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


def interval_rep(d: int, p: float) -> GradedRep:
    """Subdivision picture of L_d: V_N is the space of step functions on
    d^N equal subintervals of [0,1] (atoms of weight d^-N); s_j squeezes
    a function into the j-th subinterval with the isometric factor
    d^(1/p), and t_j stretches that subinterval back out."""
    kind = leavitt(d)
    p = float(p)
    root = d ** (1.0 / p)

    def space_fn(level):
        return FiniteMeasureSpace(range(d**level), [float(d) ** (-level)] * d**level)

    def s_fn(j, level):
        n = d**level
        rows = (j - 1) * n + np.arange(n)
        return sparse.csr_matrix(
            (np.full(n, root, dtype=complex), (rows, np.arange(n))),
            shape=(d * n, n),
        )

    def t_fn(j, level):
        n = d**level
        m = d ** (level - 1)
        cols = (j - 1) * m + np.arange(m)
        return sparse.csr_matrix(
            (np.full(m, 1.0 / root, dtype=complex), (np.arange(m), cols)),
            shape=(m, n),
        )

    def inclusion_fn(level):
        n = d**level
        rows = np.arange(d * n)
        cols = np.repeat(np.arange(n), d)
        return sparse.csr_matrix(
            (np.ones(d * n, dtype=complex), (rows, cols)), shape=(d * n, n)
        )

    return GradedRep(kind, p, space_fn, s_fn, t_fn, inclusion_fn, f"interval(d={d})")


def sequence_rep(d: int, p: float) -> GradedRep:
    """Coordinate picture of L_d on l^p: s_j sends the n-th basis vector
    to basis vector d(n-1)+j; V_N is the span of the first d^N
    coordinates with counting weights."""
    kind = leavitt(d)
    p = float(p)

    def space_fn(level):
        return FiniteMeasureSpace(range(1, d**level + 1), [1.0] * d**level)

    def s_fn(j, level):
        n = d**level
        ns = np.arange(1, n + 1)
        rows = d * (ns - 1) + j - 1  # 0-based row of atom d(n-1)+j
        return sparse.csr_matrix(
            (np.ones(n, dtype=complex), (rows, np.arange(n))), shape=(d * n, n)
        )

    def t_fn(j, level):
        n = d**level
        ns = np.arange(1, n + 1)
        hits = (ns - j) % d == 0
        src = ns[hits]
        rows = (src - j) // d  # 0-based row of atom (n-j)/d + 1
        return sparse.csr_matrix(
            (np.ones(len(src), dtype=complex), (rows, src - 1)),
            shape=(n // d, n),
        )

    def inclusion_fn(level):
        n = d**level
        return sparse.csr_matrix(
            (np.ones(n, dtype=complex), (np.arange(n), np.arange(n))),
            shape=(d * n, n),
        )

    return GradedRep(kind, p, space_fn, s_fn, t_fn, inclusion_fn, f"sequence(d={d})")


def fourier_twist(rep: GradedRep, verify_levels: int = 2, tol: float = 1e-10) -> GradedRep:
    """Pre-compose with the Fourier automorphism: the new generator
    images are v_k = d^(-1/p) sum_j w^(jk) s_j and
    w_k = d^(-1/q) sum_j w^(-jk) t_j with w = exp(2 pi i / d).  The
    defining relations are re-verified numerically on the first levels.
    """
    d = rep.kind.d
    p = rep.p
    q = conjugate_exponent(p)
    omega = cmath.exp(2j * cmath.pi / d)
    cs = d ** (-1.0 / p)
    ct = 1.0 if q == np.inf else d ** (-1.0 / q)

    def s_fn(k, level):
        return cs * sum(
            omega ** (j * k) * rep.s_matrix(j, level) for j in range(1, d + 1)
        )

    def t_fn(k, level):
        return ct * sum(
            omega ** (-j * k) * rep.t_matrix(j, level) for j in range(1, d + 1)
        )

    out = GradedRep(
        rep.kind, p, rep.space, s_fn, t_fn, rep.inclusion,
        f"fourier({rep.label})",
    )
    residual = check_relations(out, verify_levels)
    if residual > tol:
        raise ValueError(f"twisted relations fail: residual {residual:.3e}")
    return out


def twist_matrix(d: int, p: float) -> np.ndarray:
    """The d x d matrix u with u[j,k] = d^(-1/p) w^(jk), so the twisted
    s_lambda equals s_(u lambda)."""
    omega = cmath.exp(2j * cmath.pi / d)
    jk = np.arange(1, d + 1)
    return d ** (-1.0 / float(p)) * omega ** np.outer(jk, jk)


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

    def space_fn(level):
        return disjoint_union([r.space(level) for r in reps])

    def s_fn(j, level):
        return sparse.block_diag(
            [r.s_matrix(j, level) for r in reps], format="csr"
        )

    def t_fn(j, level):
        return sparse.block_diag(
            [r.t_matrix(j, level) for r in reps], format="csr"
        )

    def inclusion_fn(level):
        return sparse.block_diag(
            [r.inclusion(level) for r in reps], format="csr"
        )

    label = " (+) ".join(r.label for r in reps)
    return GradedRep(
        first.kind, first.p, space_fn, s_fn, t_fn, inclusion_fn, f"sum[{label}]"
    )


def tensor_identity(rep: GradedRep, aux: FiniteMeasureSpace) -> GradedRep:
    """Tensor with the identity on a fixed auxiliary space; norms of all
    represented elements are unchanged."""
    if len(aux) < 1:
        raise ValueError("auxiliary space must have at least one atom")
    eye = sparse.identity(len(aux), dtype=complex, format="csr")

    def space_fn(level):
        return product_space(rep.space(level), aux)

    def s_fn(j, level):
        return sparse.kron(rep.s_matrix(j, level), eye, format="csr")

    def t_fn(j, level):
        return sparse.kron(rep.t_matrix(j, level), eye, format="csr")

    def inclusion_fn(level):
        return sparse.kron(rep.inclusion(level), eye, format="csr")

    return GradedRep(
        rep.kind, rep.p, space_fn, s_fn, t_fn, inclusion_fn, f"tensor[{rep.label}, {len(aux)}]"
    )


def free_rep(rep: GradedRep, n: int) -> GradedRep:
    """Tensor the generators with the cyclic shift on l^p(Z/nZ): s_j
    becomes s_j x shift and t_j becomes t_j x shift^(-1).  The blocks
    V x delta_m form an approximately free partition, and a homogeneous
    element a of degree k is represented as rep(a) x shift^k."""
    if n < 1:
        raise ValueError("cycle length must be at least 1")
    rows = (np.arange(n) + 1) % n
    shift = sparse.csr_matrix(
        (np.ones(n, dtype=complex), (rows, np.arange(n))), shape=(n, n)
    )
    shift_inv = shift.T.tocsr()
    eye = sparse.identity(n, dtype=complex, format="csr")
    zspace = FiniteMeasureSpace(range(n), [1.0] * n)

    def space_fn(level):
        return product_space(rep.space(level), zspace)

    def s_fn(j, level):
        return sparse.kron(rep.s_matrix(j, level), shift, format="csr")

    def t_fn(j, level):
        return sparse.kron(rep.t_matrix(j, level), shift_inv, format="csr")

    def inclusion_fn(level):
        return sparse.kron(rep.inclusion(level), eye, format="csr")

    return GradedRep(
        rep.kind, rep.p, space_fn, s_fn, t_fn, inclusion_fn, f"free[{rep.label}, n={n}]"
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


def twist_by_invertible(rep: GradedRep, u, check_levels: int = 2) -> GradedRep:
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
        dense = {level: np.asarray(u(level), dtype=complex) for level in range(check_levels + 2)}
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
    residual = check_relations(out, check_levels)
    if residual > 1e-8 * max(1.0, cond):
        raise ValueError(f"twisted relations fail: residual {residual:.3e}")
    return out


def block_scalar_twist(rep_sum: GradedRep, scalars, components):
    """Twist a direct sum by a diagonal of scalars, one per summand.

    ``components`` are the summands of ``rep_sum`` (needed to size the
    blocks per level).  Reproduces e.g. s_j (+) (1/2) s_j.
    """
    scalars = [complex(c) for c in scalars]
    if len(scalars) != len(components):
        raise ValueError("one scalar per summand")

    def u_of(level):
        blocks = [
            c * np.eye(len(r.space(level))) for c, r in zip(scalars, components)
        ]
        from scipy.linalg import block_diag

        return block_diag(*blocks)

    return twist_by_invertible(rep_sum, u_of)


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
        mat = sparse.csr_matrix(mat)
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


def reconstruct_t_from_s(rep: GradedRep, level: int) -> float:
    """Rebuild each t_j from s_j alone (detect the spatial system of
    s_j, reverse it, materialize) and return the max deviation from the
    stored t_j matrices.  Spatial representations determine their t
    images this way."""
    worst = 0.0
    for j in rep.generators:
        gap = _reverse_law_gap(rep, rep.generator_operator("s", j, level), j, level)
        if gap is None:
            raise ValueError(f"s_{j} is not a spatial isometry at level {level}")
        worst = max(worst, gap)
    return worst


# -- spatiality report ------------------------------------------------------


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


def _isometry_scale(A: OperatorMatrix, tol: float) -> float | None:
    """The c >= 0 with A = c * V for a full-domain isometry V, else None.

    c is the largest column ratio, and every column ratio must be within
    tol * c of it.  For p != 2, V is isometric iff its columns have
    pairwise disjoint supports (the equality case of Clarkson's
    inequality forces disjointness; disjointness makes the norm a p-sum
    over columns).  This is weaker than the detector's block-constant
    semispatial form: an isometry may carry non-constant column moduli.
    At p = 2 the weighted Gram identity V^H D_nu V = D_mu is exact and
    disjointness is not necessary.
    """
    K = A.kernel
    mags = abs(K).power(A.p)
    ratios = (A.target.weights @ mags) ** (1.0 / A.p) / A.source.weights ** (1.0 / A.p)
    c = float(ratios.max(initial=0.0))
    if c == 0.0:
        return c
    if np.abs(ratios - c).max() > tol * c:
        return None
    if A.p == 2.0:
        V = K / c
        gram = (V.conj().T @ sparse.diags_array(A.target.weights)) @ V
        if max_abs_difference(gram, sparse.diags_array(A.source.weights)) > tol * 10:
            return None
        return c
    values = np.abs(K.data * (1.0 / c))  # the entries of K / c
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    rows = rows[values > 1e-12 * max(1.0, float(values.max(initial=0.0)))]
    if np.unique(rows).size < rows.size:  # a row shared by two columns
        return None
    return c


def spatiality_report(
    rep: GradedRep,
    depth: int = 2,
    seed: int = 0,
    samples: int = 50,
    norm_tol: float = 1e-8,
) -> SpatialityReport:
    """Decide the representation-class conditions at a truncation level.

    Norm conditions are tested on a seeded grid of coefficient vectors;
    the strong-forward-isometry test normalizes each s_lambda by its
    largest column ratio before the isometry test (sampling is
    declared in the notes, not hidden).  Spatiality is decided the same
    way at every p: the detector must accept each s_j as a spatial
    isometry and the reverse of its system must equal t_j.  At p = 2 a
    pass still certifies spatiality, but a failure does not rule it out
    (the detector's rejection is not a proof there), so it is reported
    as undecided.
    """
    from .pnorm import lp_norm, power_estimate

    p = rep.p
    q = conjugate_exponent(p)
    d = rep.kind.d
    level = max(1, depth)
    rng = np.random.default_rng(seed)
    conditions: dict = {}

    s_ops = {j: rep.generator_operator("s", j, level) for j in rep.generators}
    t_ops = {j: rep.generator_operator("t", j, level) for j in rep.generators}

    # contractive on generators; the witness is the first generator in
    # the order s_1, t_1, s_2, ... within 1e-12 relative of the largest
    # norm, so that rounding does not decide between equal norms
    norms = {
        f"{fam}_{j}": power_estimate(op, restarts=8, seed=seed).estimate
        for j in rep.generators
        for fam, op in (("s", s_ops[j]), ("t", t_ops[j]))
    }
    largest = max(norms.values())
    named = next(name for name, est in norms.items() if est >= largest * (1.0 - 1e-12))
    conditions["contractive_on_generators"] = Condition(
        largest <= 1.0 + norm_tol,
        note="largest generator norm estimate",
        witness={"generator": named, "norm": largest},
    )

    # forward isometric
    fi_value, fi_witness = True, {}
    for j in rep.generators:
        c = _isometry_scale(s_ops[j], norm_tol)
        if c is None or abs(c - 1.0) > norm_tol:
            fi_value, fi_witness = False, {"generator": f"s_{j}"}
            break
    conditions["forward_isometric"] = Condition(fi_value, witness=fi_witness)

    # one pass over the coefficient vectors builds each s_lambda once for
    # strong forward isometry (s_lambda a scalar multiple of an isometry)
    # and for p-standardness on span(s_1..s_d)
    lams = [np.eye(d)[:, i] for i in range(d)]
    lams.append(np.arange(1, d + 1).astype(complex))
    for _ in range(samples):
        lams.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    sfi_value, sfi_witness = fi_value, dict(fi_witness)
    ps_value, ps_witness = True, {}
    for lam in lams:
        if not (sfi_value or ps_value):
            break
        A = _combination(s_ops, lam)
        if sfi_value and _isometry_scale(A, norm_tol) is None:
            sfi_value = False
            sfi_witness = {"lambda": [str(z) for z in lam]}
        if ps_value:
            est = power_estimate(A, restarts=8, seed=seed).estimate
            expected = lp_norm(lam, p)
            if abs(est - expected) > norm_tol * max(1.0, expected):
                ps_value = False
                ps_witness = {"lambda": [str(z) for z in lam], "norm": est, "expected": expected}
    conditions["strongly_forward_isometric"] = Condition(
        sfi_value,
        note=f"standard basis plus {samples} seeded samples",
        witness=sfi_witness,
    )

    # disjoint ranges
    supports = {}
    disjoint_value, disjoint_witness = True, {}
    for j in rep.generators:
        K = s_ops[j].kernel
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        rows = set(rows[np.abs(K.data) > 1e-12])
        for k, other in supports.items():
            if rows & other:
                disjoint_value = False
                disjoint_witness = {
                    "generators": [f"s_{k}", f"s_{j}"],
                    "coordinate": str(min(rows & other)),
                }
                break
        supports[j] = rows
        if not disjoint_value:
            break
    conditions["disjoint"] = Condition(disjoint_value, witness=disjoint_witness)

    # spatial: detector plus reverse law
    spatial = Condition(True, note="detector + reverse law")
    for j in rep.generators:
        gap = _reverse_law_gap(rep, s_ops[j], j, level)
        if gap is None:
            witness = {"generator": f"s_{j}", "reason": "not a spatial isometry"}
        elif gap > 1e-9:
            witness = {"generator": f"t_{j}", "reason": "reverse law fails"}
        else:
            continue
        spatial = Condition(False, note=spatial.note, witness=witness)
        break
    if p == 2.0:
        spatial = (
            Condition(True, note="p = 2: detector + reverse law")
            if spatial.value
            else Condition(None, note="not decidable by detector at p = 2")
        )
    conditions["spatial"] = spatial
    conditions["p_standard_s"] = Condition(ps_value, witness=ps_witness)

    # p-standard on span(t_1..t_d), against the conjugate exponent
    pt_value, pt_witness = True, {}
    for lam in lams[: d + 1 + samples // 2]:
        est = power_estimate(_combination(t_ops, lam), restarts=8, seed=seed).estimate
        expected = lp_norm(lam, q)
        if abs(est - expected) > norm_tol * max(1.0, expected):
            pt_value = False
            pt_witness = {"gamma": [str(z) for z in lam], "norm": est, "expected": expected}
            break
    conditions["p_standard_t"] = Condition(pt_value, witness=pt_witness)

    # row isometry
    row_value, row_witness = True, {}
    n_in = len(s_ops[1].source)
    for _ in range(max(8, samples // 2)):
        xis = rng.standard_normal((d, n_in)) + 1j * rng.standard_normal((d, n_in))
        out = sum(s_ops[j].apply(xis[j - 1]) for j in rep.generators)
        lhs = vector_norm(s_ops[1].target, out, p) ** p
        rhs = sum(vector_norm(s_ops[1].source, xis[j - 1], p) ** p for j in rep.generators)
        if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
            row_value = False
            row_witness = {"lhs": lhs, "rhs": rhs}
            break
    conditions["row_isometry"] = Condition(row_value, witness=row_witness)

    # spatial restriction to the matrix-unit subalgebra
    md_value, md_witness = True, {}
    diag_supports = []
    for j in rep.generators:
        ejj = evaluate(rep, monomial(rep.kind, (j,), (j,)), level)
        res = classify_idempotent(ejj, tol=1e-9)
        if isinstance(res, Rejection):
            md_value = False
            md_witness = {"unit": f"e_{j}{j}", "reason": res.reason}
            break
        diag_supports.append(set(res))
    if md_value:
        all_atoms = set(rep.space(level).atoms)
        union = set().union(*diag_supports) if diag_supports else set()
        if union != all_atoms or any(
            diag_supports[i] & diag_supports[j]
            for i in range(len(diag_supports))
            for j in range(i + 1, len(diag_supports))
        ):
            md_value = False
            md_witness = {"reason": "diagonal supports do not partition the space"}
    if md_value:
        for j in rep.generators:
            for k in rep.generators:
                ejk = evaluate(rep, monomial(rep.kind, (j,), (k,)), level)
                est = power_estimate(ejk, restarts=4, seed=seed).estimate
                if est > 1.0 + norm_tol:
                    md_value = False
                    md_witness = {"unit": f"e_{j}{k}", "norm": est}
                    break
            if not md_value:
                break
    conditions["md_restriction_spatial"] = Condition(
        md_value, note="diagonal multiplication test", witness=md_witness
    )

    violations = _audit(conditions)
    return SpatialityReport(
        label=rep.label,
        p=p,
        depth=depth,
        seed=seed,
        conditions=conditions,
        violations=tuple(violations),
    )


def _combination(ops: dict, lam) -> OperatorMatrix:
    """sum_j lam_j op_j over the generator operators ops = {j: op_j}."""
    kernel = sum(complex(lam[j - 1]) * op.kernel for j, op in ops.items())
    return OperatorMatrix(ops[1].source, ops[1].target, ops[1].p, kernel)


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
