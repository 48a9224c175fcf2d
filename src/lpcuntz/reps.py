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
from .measure import (
    FiniteMeasureSpace,
    SetTransformation,
    disjoint_union,
    product_space,
)
from .spatial import (
    OperatorMatrix,
    Rejection,
    SpatialSystem,
    classify_idempotent,
    conjugate_exponent,
    detect,
    dual as dual_system,
    identity_system,
    materialize,
    reverse as reverse_system,
    tensor_systems,
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
        known_system_fn=None,
    ):
        self.kind = kind
        self.p = float(p)
        self.label = label
        self.space = lru_cache(maxsize=None)(space_fn)
        self.s_matrix = lru_cache(maxsize=None)(s_fn)
        self.t_matrix = lru_cache(maxsize=None)(t_fn)
        self.inclusion = lru_cache(maxsize=None)(inclusion_fn)
        if known_system_fn is not None:
            self.known_system = lru_cache(maxsize=None)(known_system_fn)
        else:
            self.known_system = lambda j, level: None

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

    def known_system_fn(j, level):
        dom = space_fn(level)
        cod = space_fn(level + 1)
        n = d**level
        blocks = {i: frozenset([(j - 1) * n + i]) for i in range(n)}
        transform = SetTransformation(dom, cod.subspace(blocks_range(blocks)), blocks)
        F = tuple(sorted(blocks_range(blocks)))
        return SpatialSystem(dom, cod, dom.atoms, F, transform, {y: 1.0 for y in F})

    return GradedRep(kind, p, space_fn, s_fn, t_fn, inclusion_fn, f"interval(d={d})", known_system_fn)


def blocks_range(blocks) -> set:
    out = set()
    for b in blocks.values():
        out |= b
    return out


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

    def known_system_fn(j, level):
        dom = space_fn(level)
        cod = space_fn(level + 1)
        blocks = {x: frozenset([d * (x - 1) + j]) for x in dom.atoms}
        F = tuple(sorted(blocks_range(blocks)))
        transform = SetTransformation(dom, cod.subspace(F), blocks)
        return SpatialSystem(dom, cod, dom.atoms, F, transform, {y: 1.0 for y in F})

    return GradedRep(kind, p, space_fn, s_fn, t_fn, inclusion_fn, f"sequence(d={d})", known_system_fn)


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

    def known_system_fn(j, level):
        systems = [r.known_system(j, level) for r in reps]
        if any(sys is None for sys in systems):
            return None
        dom = space_fn(level)
        cod = disjoint_union([r.space(level + 1) for r in reps])
        blocks = {}
        g = {}
        E = []
        F = []
        for i, sys in enumerate(systems):
            for x in sys.E:
                E.append((i, x))
                block = frozenset((i, y) for y in sys.block(x))
                blocks[(i, x)] = block
            for y in sys.F:
                F.append((i, y))
                g[(i, y)] = sys.g[y]
        transform = SetTransformation(dom.subspace(E), cod.subspace(F), blocks)
        return SpatialSystem(dom, cod, E, F, transform, g)

    label = " (+) ".join(r.label for r in reps)
    return GradedRep(
        first.kind, first.p, space_fn, s_fn, t_fn, inclusion_fn,
        f"sum[{label}]", known_system_fn,
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

    def known_system_fn(j, level):
        sys = rep.known_system(j, level)
        if sys is None:
            return None
        return tensor_systems(sys, identity_system(aux))

    return GradedRep(
        rep.kind, rep.p, space_fn, s_fn, t_fn, inclusion_fn,
        f"tensor[{rep.label}, {len(aux)}]", known_system_fn,
    )


def _cyclic_shift_system(n: int) -> SpatialSystem:
    space = FiniteMeasureSpace(range(n), [1.0] * n)
    blocks = {m: frozenset([(m + 1) % n]) for m in range(n)}
    transform = SetTransformation(space, space, blocks)
    return SpatialSystem(
        space, space, space.atoms, space.atoms, transform, {m: 1.0 for m in range(n)}
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
    shift_sys = _cyclic_shift_system(n)
    rev_shift_sys = reverse_system(shift_sys)

    def space_fn(level):
        return product_space(rep.space(level), zspace)

    def s_fn(j, level):
        return sparse.kron(rep.s_matrix(j, level), shift, format="csr")

    def t_fn(j, level):
        return sparse.kron(rep.t_matrix(j, level), shift_inv, format="csr")

    def inclusion_fn(level):
        return sparse.kron(rep.inclusion(level), eye, format="csr")

    def known_system_fn(j, level):
        sys = rep.known_system(j, level)
        if sys is None:
            return None
        return tensor_systems(sys, shift_sys)

    return GradedRep(
        rep.kind, rep.p, space_fn, s_fn, t_fn, inclusion_fn,
        f"free[{rep.label}, n={n}]", known_system_fn,
    )


def _pairing_adjoint_sparse(mat, source_weights, target_weights):
    """Sparse form of the bilinear-pairing adjoint D_src^-1 M^T D_tgt."""
    m = mat.T.tocsr().astype(complex)
    left = sparse.diags(1.0 / source_weights)
    right = sparse.diags(target_weights)
    return (left @ m @ right).tocsr()


def dual_rep(rep: GradedRep) -> GradedRep:
    """Dual representation on the conjugate exponent: generator images
    are the pairing-adjoints with the s and t roles swapped."""
    if rep.p == 1.0:
        raise ValueError("duals of p = 1 representations are unsupported")
    q = conjugate_exponent(rep.p)

    def s_fn(j, level):
        # adjoint of t_j: V_{level+1} -> V_level, raising the level
        return _pairing_adjoint_sparse(
            rep.t_matrix(j, level + 1),
            rep.space(level + 1).weights,
            rep.space(level).weights,
        )

    def t_fn(j, level):
        # adjoint of s_j: V_{level-1} -> V_level, lowering the level
        return _pairing_adjoint_sparse(
            rep.s_matrix(j, level - 1),
            rep.space(level - 1).weights,
            rep.space(level).weights,
        )

    def known_system_fn(j, level):
        sys = rep.known_system(j, level)
        if sys is None:
            return None
        return dual_system(reverse_system(sys), rep.p)[0]

    return GradedRep(
        rep.kind, q, rep.space, s_fn, t_fn, rep.inclusion,
        f"dual({rep.label})", known_system_fn,
    )


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


def evaluate(rep: GradedRep, a: AlgebraElement, level: int, reduce: bool = True) -> OperatorMatrix:
    """Matrix of the represented element on V_level.

    The element is put in canonical form (unless ``reduce`` is False,
    which assembles the raw terms; the result agrees because the
    representation satisfies the defining relations); each monomial
    s_alpha t_beta walks down l(beta) levels and up l(alpha); terms of
    lower degree are padded with inclusions so everything lands in
    V_{level + k_max}.
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
    k_max = max((len(al) - len(be) for (al, be) in a.terms), default=0)
    n_in = len(rep.space(level))
    n_out = len(rep.space(level + k_max))
    total = sparse.csr_matrix((n_out, n_in), dtype=complex)
    for (alpha, beta), coeff in a.terms.items():
        mat = sparse.identity(n_in, dtype=complex, format="csr")
        cur = level
        for letter in beta:  # t_beta applies t_{beta(1)} first
            mat = rep.t_matrix(letter, cur) @ mat
            cur -= 1
        for letter in reversed(alpha):  # s_alpha applies s_{alpha(m)} first
            mat = rep.s_matrix(letter, cur) @ mat
            cur += 1
        while cur < level + k_max:
            mat = rep.inclusion(cur) @ mat
            cur += 1
        total = total + coeff.to_complex() * mat
    return OperatorMatrix(rep.space(level), rep.space(level + k_max), rep.p, total)


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


def reconstruct_t_from_s(rep: GradedRep, level: int) -> float:
    """Rebuild each t_j from s_j alone (detect the spatial system of
    s_j, reverse it, materialize) and return the max deviation from the
    stored t_j matrices.  Spatial representations determine their t
    images this way."""
    worst = 0.0
    for j in rep.generators:
        A = rep.generator_operator("s", j, level)
        res = detect(A)
        if not res.accepted or not res.spatial:
            raise ValueError(f"s_{j} is not a spatial partial isometry at level {level}")
        t_expected = materialize(reverse_system(res.system), rep.p)
        t_stored = rep.generator_operator("t", j, level + 1)
        worst = max(worst, float(np.abs(t_expected.entries - t_stored.entries).max()))
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


def _is_isometry_matrix(A: OperatorMatrix, tol: float) -> bool:
    """Full-domain isometry test.

    For p != 2, a matrix is isometric iff its columns have pairwise
    disjoint supports and each column has unit norm ratio (the equality
    case of Clarkson's inequality forces disjointness; disjointness
    makes the norm a p-sum over columns).  Note this is weaker than the
    detector's block-constant semispatial form: an isometry may carry
    non-constant column moduli.  At p = 2 the weighted Gram identity is
    exact and disjointness is not necessary.
    """
    if A.p == 2.0:
        B = A.entries
        gram = B.conj().T @ np.diag(A.target.weights) @ B
        return bool(np.abs(gram - np.diag(A.source.weights)).max() <= tol * 10)
    rows, values = _nonzeros(A)
    cut = 1e-12 * max(1.0, float(np.abs(values).max(initial=0.0)))
    rows = rows[np.abs(values) > cut]
    if np.unique(rows).size < rows.size:  # a row shared by two columns
        return False
    ratios = _column_ratios(A)
    return bool(np.abs(ratios - 1.0).max(initial=0.0) <= tol)


def _nonzeros(A: OperatorMatrix) -> tuple:
    """Row index and value of each stored entry of the kernel."""
    K = A.kernel
    if isinstance(K, np.ndarray):
        return np.nonzero(K)[0], K[K != 0]
    coo = K.tocoo()
    return coo.row, coo.data


def _column_ratios(A: OperatorMatrix) -> np.ndarray:
    """||A e_x|| / ||e_x|| for each source atom x."""
    mags = abs(A.kernel)
    mags = mags.power(A.p) if sparse.issparse(mags) else mags**A.p
    return (A.target.weights @ mags) ** (1.0 / A.p) / A.source.weights ** (1.0 / A.p)


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
    largest column ratio before running the detector (sampling is
    declared in the notes, not hidden).  At p = 2 the detector cannot
    certify spatiality, so that condition falls back to the reverse-law
    check against constructor-supplied systems when present and is
    reported as undecided otherwise.
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

    # contractive on generators
    worst = ("", 0.0)
    for j in rep.generators:
        for fam, op in (("s", s_ops[j]), ("t", t_ops[j])):
            est = power_estimate(op, restarts=8, seed=seed).estimate
            if est > worst[1]:
                worst = (f"{fam}_{j}", est)
    conditions["contractive_on_generators"] = Condition(
        worst[1] <= 1.0 + norm_tol,
        note="largest generator norm estimate",
        witness={"generator": worst[0], "norm": worst[1]},
    )

    # forward isometric
    fi_value, fi_witness = True, {}
    for j in rep.generators:
        if not _is_isometry_matrix(s_ops[j], norm_tol):
            fi_value, fi_witness = False, {"generator": f"s_{j}"}
            break
    conditions["forward_isometric"] = Condition(fi_value, witness=fi_witness)

    # strongly forward isometric: s_lambda a scalar multiple of an isometry
    lams = [np.eye(d)[:, i] for i in range(d)]
    lams.append(np.arange(1, d + 1).astype(complex))
    for _ in range(samples):
        lams.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    sfi_value, sfi_witness = fi_value, dict(fi_witness)
    if fi_value:
        for lam in lams:
            A = _s_lambda_operator(rep, lam, level, s_ops)
            ratios = _column_ratios(A)
            c = float(ratios.max(initial=0.0))
            if c == 0.0:
                continue
            scaled = OperatorMatrix(A.source, A.target, p, A.kernel / c)
            if np.abs(ratios - c).max() > norm_tol * c or not _is_isometry_matrix(
                scaled, norm_tol
            ):
                sfi_value = False
                sfi_witness = {"lambda": [str(z) for z in lam]}
                break
    conditions["strongly_forward_isometric"] = Condition(
        sfi_value,
        note=f"standard basis plus {samples} seeded samples",
        witness=sfi_witness,
    )

    # disjoint ranges
    supports = {}
    disjoint_value, disjoint_witness = True, {}
    for j in rep.generators:
        rows, values = _nonzeros(s_ops[j])
        rows = set(rows[np.abs(values) > 1e-12])
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

    # spatial: detector plus reverse law (or constructor systems at p = 2)
    spatial_value: bool | None = True
    spatial_witness = {}
    spatial_note = "detector + reverse law"
    if p == 2.0:
        have_systems = all(
            rep.known_system(j, level) is not None for j in rep.generators
        )
        if have_systems:
            spatial_note = "p = 2: constructor systems + reverse law"
            for j in rep.generators:
                sys = rep.known_system(j, level)
                ok = (
                    np.abs(materialize(sys, p).entries - s_ops[j].entries).max()
                    <= 1e-9
                )
                t_next = rep.generator_operator("t", j, level + 1)
                ok = ok and (
                    np.abs(
                        materialize(reverse_system(sys), p).entries - t_next.entries
                    ).max()
                    <= 1e-9
                )
                if not ok:
                    spatial_value = False
                    spatial_witness = {"generator": f"s_{j}"}
                    break
        else:
            spatial_value = None
            spatial_note = "not decidable by detector at p = 2"
    else:
        for j in rep.generators:
            res = detect(s_ops[j])
            if not (res.accepted and res.spatial and len(res.system.E) == len(s_ops[j].source)):
                spatial_value = False
                spatial_witness = {"generator": f"s_{j}", "reason": "not a spatial isometry"}
                break
            t_next = rep.generator_operator("t", j, level + 1)
            rev = materialize(reverse_system(res.system), p)
            if np.abs(rev.entries - t_next.entries).max() > 1e-9:
                spatial_value = False
                spatial_witness = {"generator": f"t_{j}", "reason": "reverse law fails"}
                break
    conditions["spatial"] = Condition(spatial_value, note=spatial_note, witness=spatial_witness)

    # p-standard on span(s_1..s_d)
    ps_value, ps_witness = True, {}
    for lam in lams:
        A = _s_lambda_operator(rep, lam, level, s_ops)
        est = power_estimate(A, restarts=8, seed=seed).estimate
        expected = lp_norm(lam, p)
        if abs(est - expected) > norm_tol * max(1.0, expected):
            ps_value = False
            ps_witness = {"lambda": [str(z) for z in lam], "norm": est, "expected": expected}
            break
    conditions["p_standard_s"] = Condition(ps_value, witness=ps_witness)

    # p-standard on span(t_1..t_d), against the conjugate exponent
    pt_value, pt_witness = True, {}
    for lam in lams[: d + 1 + samples // 2]:
        entries = sum(
            complex(lam[j - 1]) * t_ops[j].kernel for j in rep.generators
        )
        A = OperatorMatrix(t_ops[1].source, t_ops[1].target, p, entries)
        est = power_estimate(A, restarts=8, seed=seed).estimate
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


def _s_lambda_operator(rep, lam, level, s_ops) -> OperatorMatrix:
    entries = sum(complex(lam[j - 1]) * s_ops[j].kernel for j in rep.generators)
    return OperatorMatrix(s_ops[1].source, s_ops[1].target, rep.p, entries)


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
