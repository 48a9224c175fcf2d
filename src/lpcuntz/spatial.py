"""Spatial systems and (semi)spatial partial isometries on weighted
finite sequence spaces.

A spatial system (E, F, S, g) consists of supports E, F in the domain
and codomain, a disjoint-block set transformation S from E onto F, and
a unit-modulus phase g on F.  It materializes at exponent p as the
operator

    (s xi)(y) = g(y) * h(y)^(1/p) * xi(x)   for y in the block of x,

with h the Radon-Nikodym derivative of the pushforward of the domain
weights against the codomain weights; s is isometric on functions
supported in E.  The system is called spatial when all blocks are
singletons and semispatial otherwise.

``detect`` inverts ``materialize`` at finite scale: it recovers the
system from a matrix or produces a rejection witness, the concrete form
of Lamperti's description of isometries between L^p spaces (p != 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .measure import (
    FiniteMeasureSpace,
    SetTransformation,
    _block_rows,
    identity_transformation,
    product_space,
    space_from_json,
    space_to_json,
)

PHASE_TOL = 1e-12
DETECT_TOL = 1e-9
MATRIX_TOL = 1e-12


def checked_exponent(p) -> float:
    """p as a float; a ValueError unless 1 <= p < inf."""
    p = float(p)
    if not (1 <= p < np.inf):
        raise ValueError("exponent p must lie in [1, inf)")
    return p


class OperatorMatrix:
    """Complex matrix between two weighted l^p spaces (target x source).

    The kernel is always a frozen CSR copy of what it is given, dense or
    sparse (spatial partial isometries and the elements they generate
    have few nonzeros), so the operator never aliases its input and no
    caller branches on the form; a non-finite entry raises ValueError.
    Only the private ``_own`` takes a kernel that the package built
    itself as it is, without the copy or the checks.
    ``entries`` is a read-only dense view, built on first use and cached.
    """

    __slots__ = ("source", "target", "p", "kernel", "_dense")

    def __init__(self, source: FiniteMeasureSpace, target: FiniteMeasureSpace, p, entries):
        p = checked_exponent(p)
        if sparse.issparse(entries) or np.ndim(entries) != 2:
            kernel = sparse.csr_array(entries, dtype=complex, copy=True)
            kernel.sum_duplicates()
        else:
            # CSR read off np.nonzero (row-major, so canonical): ~2x
            # faster than scipy's generic constructor on small arrays
            dense = np.asarray(entries, dtype=complex)
            rows, cols = np.nonzero(dense)
            index = sparse.get_index_dtype(maxval=dense.size)
            indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1)).astype(index)
            kernel = sparse.csr_array(
                (dense[rows, cols], cols.astype(index), indptr), shape=dense.shape
            )
        if kernel.shape != (len(target), len(source)):
            raise ValueError(
                f"matrix shape {kernel.shape} does not match "
                f"target x source = ({len(target)}, {len(source)})"
            )
        if not np.isfinite(kernel.data).all():
            raise ValueError("matrix has a non-finite entry")
        self._freeze(source, target, p, kernel)

    @classmethod
    def _own(cls, source, target, p: float, kernel) -> "OperatorMatrix":
        """The operator on a canonical CSR ``kernel`` of the right shape
        that the package built itself and hands over: no copy, no check."""
        op = object.__new__(cls)
        op._freeze(source, target, p, kernel)
        return op

    def _freeze(self, source, target, p, kernel):
        for part in (kernel.data, kernel.indices, kernel.indptr):
            part.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMatrix is immutable")

    @property
    def shape(self) -> tuple:
        return self.kernel.shape

    @property
    def entries(self) -> np.ndarray:
        """Dense read-only view of the kernel."""
        if self._dense is None:
            dense = self.kernel.toarray()
            dense.flags.writeable = False
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def apply(self, xi) -> np.ndarray:
        return self.kernel @ np.asarray(xi, dtype=complex)

    def __repr__(self):
        return f"OperatorMatrix({len(self.target)}x{len(self.source)}, p={self.p:g})"


def lp_norm(x, p: float, weights=None) -> float:
    """(sum weights |x|^p)^(1/p) of a vector, unit weights by default,
    and max |x| at p = inf.  The moduli are divided by their maximum
    before the power, so a large entry or a large p cannot overflow the
    sum to inf."""
    mags = np.abs(np.asarray(x))
    top = mags.max(initial=0.0)
    if p == np.inf or top == 0.0:
        return float(top)
    terms = (mags / top) ** p
    total = terms.sum() if weights is None else weights @ terms
    return float(top * total ** (1.0 / p))


def vector_norm(space: FiniteMeasureSpace, xi, p: float) -> float:
    """Weighted p-norm, ||xi||^p = sum_x mu(x) |xi(x)|^p."""
    return lp_norm(xi, p, space.weights)


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    return p / (p - 1.0)


def unweighted_kernel(A: OperatorMatrix):
    """CSR kernel with the weights absorbed: D_nu^(1/p) A D_mu^(-1/p), so
    plain l^p norms of the result match weighted norms of A."""
    left = A.target.weights ** (1.0 / A.p)
    right = A.source.weights ** (-1.0 / A.p)
    B = A.kernel.copy()
    rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    B.data = (left[rows] * B.data) * right[B.indices]
    return B


def weighted_to_unweighted(A: OperatorMatrix) -> np.ndarray:
    """Dense form of unweighted_kernel(A)."""
    return unweighted_kernel(A).toarray()


def pairing_adjoint(A: OperatorMatrix) -> OperatorMatrix:
    """Adjoint for the bilinear pairing <xi, eta> = sum mu(x) xi(x) eta(x),
    D_source^-1 A^T D_target; lives on the conjugate exponent."""
    q = conjugate_exponent(A.p)
    if q == np.inf:
        raise ValueError("adjoint of a p = 1 operator lands in a sup-norm space")
    left = sparse.diags_array(1.0 / A.source.weights)
    right = sparse.diags_array(A.target.weights)
    return OperatorMatrix(A.target, A.source, q, left @ A.kernel.T @ right)


def indicator_operator(space: FiniteMeasureSpace, atoms, p) -> OperatorMatrix:
    subset = set(atoms)
    diag = [1.0 if a in subset else 0.0 for a in space.atoms]
    return OperatorMatrix(space, space, p, sparse.diags_array(diag, dtype=complex))


class SpatialSystem:
    """Quadruple (E, F, S, g): the combinatorial skeleton of a
    (semi)spatial partial isometry between two weighted spaces."""

    __slots__ = ("domain", "codomain", "E", "F", "transform", "g")

    def __init__(self, domain, codomain, E, F, transform: SetTransformation, g):
        E_set = set(E)
        F_set = set(F).intersection(codomain.atoms)
        E = tuple(a for a in domain.atoms if a in E_set)
        F = tuple(y for y in codomain.atoms if y in F_set)
        if transform.source != domain.subspace(E):
            raise ValueError("transform source must be the domain restricted to E")
        if transform.target != codomain.subspace(F):
            raise ValueError("transform target must be the codomain restricted to F")
        if transform.range_atoms() != F_set:
            raise ValueError("blocks must cover F exactly")
        g = dict(g)
        if set(g) != F_set:
            raise ValueError("phase must be defined on exactly the atoms of F")
        for y, value in g.items():
            value = complex(value)
            if abs(abs(value) - 1.0) > PHASE_TOL:
                raise ValueError(f"|g({y!r})| = {abs(value)} is not 1")
            g[y] = value
        self._freeze(domain, codomain, E, F, transform, g)

    @classmethod
    def _own(cls, domain, codomain, E, F, transform, g) -> "SpatialSystem":
        """The system that the package built itself, as it is, without the
        checks and copies of the constructor: E and F are tuples in domain
        and codomain order, ``transform`` maps domain.subspace(E) onto
        codomain.subspace(F) with blocks that cover F, and ``g`` is a dict
        from exactly the atoms of F to complex numbers of modulus 1."""
        sys = object.__new__(cls)
        sys._freeze(domain, codomain, E, F, transform, g)
        return sys

    def _freeze(self, domain, codomain, E, F, transform, g):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("SpatialSystem is immutable")

    @property
    def spatial(self) -> bool:
        """Spatial = all blocks singletons; otherwise semispatial."""
        return all(len(b) == 1 for b in self.transform.blocks.values())

    def block(self, x) -> frozenset:
        return self.transform.block(x)

    def image_atom(self, x):
        block = self.transform.block(x)
        if len(block) != 1:
            raise ValueError("semispatial block has no single image atom")
        return next(iter(block))

    def __eq__(self, other):
        if not isinstance(other, SpatialSystem):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.E == other.E
            and self.F == other.F
            and self.transform == other.transform
            and all(self.g[y] == other.g[y] for y in self.F)
        )

    __hash__ = None

    def __repr__(self):
        tag = "spatial" if self.spatial else "semispatial"
        return f"SpatialSystem({tag}, |E|={len(self.E)}, |F|={len(self.F)})"


def identity_system(space: FiniteMeasureSpace) -> SpatialSystem:
    return SpatialSystem(
        space,
        space,
        space.atoms,
        space.atoms,
        identity_transformation(space),
        {a: 1.0 for a in space.atoms},
    )


def _csr_parts(rows, cols, values, n_rows: int, index=np.intp) -> tuple:
    """(data, indices, indptr), indices of dtype ``index``, of the CSR
    matrix with ``values`` at (rows, cols), at most one entry per row:
    indptr counted by bincount and each entry put at its row's slot."""
    indptr = np.zeros(n_rows + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    at = indptr[rows]
    data, indices = np.empty_like(values), np.empty(len(at), dtype=index)
    data[at], indices[at] = values, cols
    return data, indices, indptr


def _system_entries(sys: SpatialSystem, p: float) -> tuple:
    """Codomain rows, domain columns and values of the entries of
    materialize(sys, p), in block order: the blocks in E order and each
    block's atoms by codomain index, the detector's row order.  Each
    block's mass is summed in that order by one bincount and h^(1/p) is
    one Python float power per block."""
    ys, rows, block_of = _block_rows(sys.transform, sys.codomain._index)
    cols = np.fromiter(map(sys.domain._index.__getitem__, sys.E), dtype=np.intp, count=len(sys.E))
    mass = np.bincount(block_of, weights=sys.codomain.weights[rows], minlength=cols.size)
    scales = np.array([h ** (1.0 / p) for h in (sys.domain.weights[cols] / mass).tolist()])
    phases = np.fromiter(map(sys.g.__getitem__, ys), dtype=complex, count=len(ys))
    # a complex-by-real product: the same bits as Python's g * h ** (1 / p)
    return rows, cols[block_of], phases * scales[block_of]


def materialize(sys: SpatialSystem, p) -> OperatorMatrix:
    """The (semi)spatial partial isometry of the system at exponent p:
    g(y) h(y)^(1/p) at (y, x) for each y in the block of x, with h the
    rn_derivative of the transformation.  Reads the system into index
    arrays (_system_entries) and builds the CSR from them once."""
    p = checked_exponent(p)
    rows, cols, values = _system_entries(sys, p)
    m, n = len(sys.codomain), len(sys.domain)
    kernel = sparse.csr_array(_csr_parts(rows, cols, values, m), shape=(m, n))
    return OperatorMatrix._own(sys.domain, sys.codomain, p, kernel)


def reverse(sys: SpatialSystem) -> SpatialSystem:
    """The reverse system (F, E, S^-1, pushforward of 1/g); the unique t
    with t s = m(chi_E) and s t = m(chi_F).  Spatial systems only.

    The inverted phase is computed as the conjugate (equal to 1/g on the
    unit circle), which keeps the reverse an exact involution.  The
    singleton blocks of a spatial system invert to singleton blocks that
    cover E, so the reverse is built without the constructors' checks.
    """
    if not sys.spatial:
        raise ValueError("the reverse is defined for spatial systems only")
    inv, g_rev = {}, {}
    for x in sys.E:
        (y,) = sys.transform.blocks[x]
        inv[y] = frozenset((x,))
        g_rev[x] = sys.g[y].conjugate()
    transform = SetTransformation._own(sys.transform.target, sys.transform.source, inv)
    return SpatialSystem._own(sys.codomain, sys.domain, sys.F, sys.E, transform, g_rev)


def compose_systems(v: SpatialSystem, s: SpatialSystem) -> SpatialSystem:
    """System of the product (materialize(v) @ materialize(s)).

    Domain support is the part of s's domain that lands inside v's
    domain support; phases multiply along the composite map.
    """
    if not (v.spatial and s.spatial):
        raise ValueError("composition is defined for spatial systems only")
    if s.codomain != v.domain:
        raise ValueError("codomain of s must be the domain of v")
    mid = set(s.F) & set(v.E)
    E = tuple(x for x in s.E if s.image_atom(x) in mid)
    F = []
    blocks = {}
    g = {}
    for x in E:
        y = s.image_atom(x)
        z = v.image_atom(y)
        blocks[x] = frozenset([z])
        F.append(z)
        g[z] = s.g[y] * v.g[z]
    F = tuple(z for z in v.codomain.atoms if z in set(F))
    transform = SetTransformation(
        s.domain.subspace(E), v.codomain.subspace(F), blocks
    )
    return SpatialSystem(s.domain, v.codomain, E, F, transform, g)


def tensor_systems(s: SpatialSystem, v: SpatialSystem) -> SpatialSystem:
    """System of the Kronecker product, on the product measure spaces."""
    if not (s.spatial and v.spatial):
        raise ValueError("tensor is defined for spatial systems only")
    domain = product_space(s.domain, v.domain)
    codomain = product_space(s.codomain, v.codomain)
    E = tuple((a, b) for a in s.E for b in v.E)
    F = tuple((y, z) for y in s.F for z in v.F)
    blocks = {}
    g = {}
    for a in s.E:
        ya = s.image_atom(a)
        for b in v.E:
            zb = v.image_atom(b)
            blocks[(a, b)] = frozenset([(ya, zb)])
            g[(ya, zb)] = s.g[ya] * v.g[zb]
    transform = SetTransformation(domain.subspace(E), codomain.subspace(F), blocks)
    return SpatialSystem(domain, codomain, E, F, transform, g)


def dual(sys: SpatialSystem, p) -> tuple:
    """System of the pairing-adjoint, on the conjugate exponent q.

    Unlike the reverse, the phase is pushed forward without inversion:
    the adjoint of s is materialized by (F, E, S^-1, pushforward of g).
    """
    p = float(p)
    if not sys.spatial:
        raise ValueError("the dual is defined for spatial systems only")
    if p <= 1:
        raise ValueError("p = 1 duals land in a sup-norm space; unsupported")
    q = conjugate_exponent(p)
    inv = sys.transform.inverse()
    g_dual = {x: sys.g[sys.image_atom(x)] for x in sys.E}
    return (
        SpatialSystem(sys.codomain, sys.domain, sys.F, sys.E, inv, g_dual),
        q,
    )


# -- detection ------------------------------------------------------------


@dataclass(frozen=True)
class SemispatialDecomposition:
    """Recovered (E, F, S, g) plus the block-constant weight ratio h."""

    system: SpatialSystem
    h: dict  # F-atom -> float, constant on blocks
    spatial: bool

    @property
    def accepted(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejection:
    """Why a matrix is not of (semi)spatial form, with a witness."""

    reason: str
    witness: dict

    @property
    def accepted(self) -> bool:
        return False


def detect(A: OperatorMatrix, tol: float = DETECT_TOL):
    """Recover a semispatial decomposition from a matrix, or reject.

    Accepts iff nonzero columns have pairwise disjoint supports and on
    each support the modulus is the block-constant weight ratio
    (mu(x)/nu(B_x))^(1/p); then A = materialize(system) up to tol.
    Works combinatorially at every p; at p = 2 acceptance still
    certifies the form, but rejection does not rule out an isometry.
    Reads the kernel's entries into index arrays, column by column and
    rows ascending (a stable sort of the CSR entries by column); every
    test scans the support entries in that order and reports the first
    failure.  The system is built from those arrays without the
    constructors' checks, whose invariants the tests below establish,
    and the reconstruction is compared with A on the same arrays.
    """
    p = A.p
    mu = A.source.weights
    nu = A.target.weights
    atoms_in, atoms_out = A.source.atoms, A.target.atoms
    K = A.kernel
    order = np.argsort(K.indices, kind="stable")
    data = K.data[order]
    mags = np.abs(data)
    scale = max(1.0, float(mags.max(initial=0.0)))
    support = mags > tol * scale
    cols = K.indices[order][support]
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))[order][support]
    values = data[support]

    # overlap: the first support entry whose row an earlier column holds
    held_rows, first = np.unique(rows, return_index=True)
    repeat = np.ones(rows.size, dtype=bool)
    repeat[first] = False
    if repeat.any():
        k = int(np.argmax(repeat))
        owner = cols[first[np.searchsorted(held_rows, rows[k])]]
        return Rejection(
            "overlapping column supports",
            {"columns": [str(atoms_in[owner]), str(atoms_in[cols[k]])],
             "row": str(atoms_out[rows[k]])},
        )

    # block constancy against (mu(x)/nu(B_x))^(1/p), summed and raised
    # as ndarray.sum and float ** do (bincount adds in order, which is
    # what ndarray.sum does below 8 terms; it goes pairwise from 8)
    E_cols, starts, counts = np.unique(cols, return_index=True, return_counts=True)
    block_of = np.repeat(np.arange(E_cols.size), counts)
    block_nu = np.bincount(block_of, weights=nu[rows], minlength=E_cols.size)
    for b in np.flatnonzero(counts >= 8):
        block_nu[b] = nu[rows[starts[b]:starts[b] + counts[b]]].sum()
    hvals = (mu[E_cols] / block_nu).tolist()
    expected = np.array([hval ** (1.0 / p) for hval in hvals])[block_of]
    moduli = np.hypot(values.real, values.imag)  # == abs() of each entry
    bad = np.abs(moduli - expected) > tol * np.maximum(1.0, expected)
    if bad.any():
        k = int(np.argmax(bad))
        return Rejection(
            "block-constancy failure",
            {
                "column": str(atoms_in[cols[k]]),
                "row": str(atoms_out[rows[k]]),
                "modulus": float(moduli[k]),
                "expected": float(expected[k]),
            },
        )

    ys = list(map(atoms_out.__getitem__, rows.tolist()))
    # componentwise division keeps real phases exact; each phase is an
    # entry over its modulus, so it has modulus 1
    phases = np.empty(values.size, dtype=complex)
    phases.real, phases.imag = values.real / moduli, values.imag / moduli
    g = dict(zip(ys, phases.tolist()))
    h = dict(zip(ys, np.array(hvals)[block_of].tolist()))
    bounds = np.append(starts, rows.size).tolist()
    # overlap passed, so the blocks are nonempty, pairwise disjoint and
    # cover F = the support rows
    source, target = A.source._restrict(E_cols), A.target._restrict(np.sort(rows))
    blocks = {x: frozenset(ys[bounds[b]:bounds[b + 1]]) for b, x in enumerate(source.atoms)}
    transform = SetTransformation._own(source, target, blocks)
    system = SpatialSystem._own(A.source, A.target, source.atoms, target.atoms, transform, g)
    # materialize(system) holds an entry at each support entry and
    # nowhere else; it sums a block's mass in codomain order
    block_rows, _, block_values = _system_entries(system, p)
    rebuilt = np.empty(A.shape[0], dtype=complex)
    rebuilt[block_rows] = block_values
    err = max(
        float(np.abs(rebuilt[rows] - values).max(initial=0.0)),
        float(mags[~support].max(initial=0.0)),
    )
    if err > tol * scale:
        return Rejection(
            "reconstruction mismatch", {"max_abs_error": err}
        )
    return SemispatialDecomposition(
        system=system, h=h, spatial=system.spatial
    )


def max_abs_difference(X, Y) -> float:
    """Largest entry modulus of X - Y for sparse matrices of one shape,
    through a sparse difference (no dense view)."""
    diff = sparse.csr_array(X) - sparse.csr_array(Y)
    return float(np.abs(diff.data).max(initial=0.0))


def classify_idempotent(A: OperatorMatrix, tol: float = MATRIX_TOL):
    """Support of an idempotent spatial partial isometry: accepts iff A
    is diagonal with entries 0 or 1, returning the support atoms.
    Reads the CSR diagonal and the stored entries; a rejection names
    the first fault in row-major order."""
    if A.source != A.target:
        raise ValueError("idempotents act on a single space")
    B = A.kernel
    rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
    cols, values = B.indices, B.data
    unit = np.abs(values - 1.0) <= tol
    bad = (np.abs(values) > tol) & ~((rows == cols) & unit)
    if bad.any():
        k = int(np.argmax(bad))
        i, j, value = rows[k], cols[k], values[k]
        if i != j:
            return Rejection(
                "off-diagonal entry",
                {"row": str(A.target.atoms[i]), "column": str(A.source.atoms[j]),
                 "value": [value.real, value.imag]},
            )
        return Rejection(
            "diagonal entry not 0 or 1",
            {"row": str(A.target.atoms[i]), "value": [value.real, value.imag]},
        )
    diagonal = np.abs(B.diagonal() - 1.0) <= tol
    return tuple(A.source.atoms[i] for i in np.flatnonzero(diagonal))


# -- JSON ------------------------------------------------------------------


def system_to_json(sys: SpatialSystem) -> dict:
    return {
        "domain": space_to_json(sys.domain),
        "codomain": space_to_json(sys.codomain),
        "E": [str(a) for a in sys.E],
        "F": [str(y) for y in sys.F],
        "blocks": {str(a): sorted(str(y) for y in sys.block(a)) for a in sys.E},
        "g": [
            {"re": sys.g[y].real, "im": sys.g[y].imag} for y in sys.F
        ],
    }


def system_from_json(data: dict) -> SpatialSystem:
    domain = space_from_json(data["domain"])
    codomain = space_from_json(data["codomain"])
    E = tuple(data["E"])
    F = tuple(data["F"])
    blocks = {a: frozenset(b) for a, b in data["blocks"].items()}
    g = {
        y: complex(entry["re"], entry["im"])
        for y, entry in zip(data["F"], data["g"])
    }
    transform = SetTransformation(domain.subspace(E), codomain.subspace(F), blocks)
    return SpatialSystem(domain, codomain, E, F, transform, g)


def matrix_to_json(A: OperatorMatrix, p_text: str | None = None) -> dict:
    return {
        "source": space_to_json(A.source),
        "target": space_to_json(A.target),
        "p": p_text if p_text is not None else repr(A.p),
        "entries": [
            [{"re": z.real, "im": z.imag} for z in row] for row in A.entries
        ],
    }


def matrix_from_json(data: dict) -> OperatorMatrix:
    """Inverse of matrix_to_json; malformed input raises ValueError."""
    try:
        source = space_from_json(data["source"])
        target = space_from_json(data["target"])
        entries = np.array(
            [[complex(e["re"], e["im"]) for e in row] for row in data["entries"]],
            dtype=complex,
        ).reshape(len(target), len(source))
        p = float(data["p"])
    except KeyError as exc:
        raise ValueError(f"matrix JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from None
    return OperatorMatrix(source, target, p, entries)
