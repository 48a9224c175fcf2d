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
    identity_transformation,
    product_space,
    rn_derivative,
    space_from_json,
    space_to_json,
)

PHASE_TOL = 1e-12
DETECT_TOL = 1e-9
MATRIX_TOL = 1e-12


class OperatorMatrix:
    """Complex matrix between two weighted l^p spaces (target x source).

    The kernel is held as given: a dense ndarray, or a CSR array when a
    scipy.sparse matrix is passed (spatial partial isometries and the
    elements they generate have few nonzeros).  Either way it is copied
    at construction, so the operator never aliases its input.
    ``entries`` is a read-only dense view, built on first use and cached.
    """

    __slots__ = ("source", "target", "p", "kernel", "_dense")

    def __init__(self, source: FiniteMeasureSpace, target: FiniteMeasureSpace, p, entries):
        p = float(p)
        if not (1 <= p < np.inf):
            raise ValueError("exponent p must lie in [1, inf)")
        if sparse.issparse(entries):
            kernel = sparse.csr_array(entries, dtype=complex, copy=True)
            kernel.sum_duplicates()
            for part in (kernel.data, kernel.indices, kernel.indptr):
                part.flags.writeable = False
        else:
            kernel = np.array(entries, dtype=complex)
            kernel.flags.writeable = False
        if kernel.shape != (len(target), len(source)):
            raise ValueError(
                f"matrix shape {kernel.shape} does not match "
                f"target x source = ({len(target)}, {len(source)})"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_dense", kernel if isinstance(kernel, np.ndarray) else None)

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

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.target != self.source:
            raise ValueError("spaces do not chain")
        if other.p != self.p:
            raise ValueError("exponent mismatch")
        return OperatorMatrix(other.source, self.target, self.p, self.kernel @ other.kernel)

    def __repr__(self):
        return f"OperatorMatrix({len(self.target)}x{len(self.source)}, p={self.p:g})"


def vector_norm(space: FiniteMeasureSpace, xi, p: float) -> float:
    """Weighted p-norm, ||xi||^p = sum_x mu(x) |xi(x)|^p."""
    xi = np.asarray(xi, dtype=complex)
    if p == np.inf:
        return float(np.max(np.abs(xi), initial=0.0))
    return float(np.sum(space.weights * np.abs(xi) ** p) ** (1.0 / p))


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return np.inf
    return p / (p - 1.0)


def weighted_to_unweighted(A: OperatorMatrix) -> np.ndarray:
    """Kernel with the weights absorbed: D_nu^(1/p) A D_mu^(-1/p), so
    plain l^p norms of the result match weighted norms of A."""
    p = A.p
    left = A.target.weights ** (1.0 / p)
    right = A.source.weights ** (-1.0 / p)
    return (left[:, None] * A.entries) * right[None, :]


def pairing_adjoint(A: OperatorMatrix) -> OperatorMatrix:
    """Adjoint for the bilinear pairing <xi, eta> = sum mu(x) xi(x) eta(x);
    lives on the conjugate exponent."""
    q = conjugate_exponent(A.p)
    if q == np.inf:
        raise ValueError("adjoint of a p = 1 operator lands in a sup-norm space")
    entries = (A.entries.T * A.target.weights[None, :]) / A.source.weights[:, None]
    return OperatorMatrix(A.target, A.source, q, entries)


def multiplication_operator(space: FiniteMeasureSpace, values, p) -> OperatorMatrix:
    return OperatorMatrix(space, space, p, np.diag(np.asarray(values, dtype=complex)))


def indicator_operator(space: FiniteMeasureSpace, atoms, p) -> OperatorMatrix:
    subset = set(atoms)
    diag = [1.0 if a in subset else 0.0 for a in space.atoms]
    return multiplication_operator(space, diag, p)


class SpatialSystem:
    """Quadruple (E, F, S, g): the combinatorial skeleton of a
    (semi)spatial partial isometry between two weighted spaces."""

    __slots__ = ("domain", "codomain", "E", "F", "transform", "g")

    def __init__(self, domain, codomain, E, F, transform: SetTransformation, g):
        E = tuple(a for a in domain.atoms if a in set(E))
        F = tuple(y for y in codomain.atoms if y in set(F))
        if transform.source != domain.subspace(E):
            raise ValueError("transform source must be the domain restricted to E")
        if transform.target != codomain.subspace(F):
            raise ValueError("transform target must be the codomain restricted to F")
        covered = transform.range_atoms()
        if covered != set(F):
            raise ValueError("blocks must cover F exactly")
        g = dict(g)
        if set(g) != set(F):
            raise ValueError("phase must be defined on exactly the atoms of F")
        for y, value in g.items():
            value = complex(value)
            if abs(abs(value) - 1.0) > PHASE_TOL:
                raise ValueError(f"|g({y!r})| = {abs(value)} is not 1")
            g[y] = value
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


def materialize(sys: SpatialSystem, p) -> OperatorMatrix:
    """The (semi)spatial partial isometry of the system at exponent p."""
    p = float(p)
    if not (1 <= p < np.inf):
        raise ValueError("exponent p must lie in [1, inf)")
    h = rn_derivative(sys.transform)
    entries = np.zeros((len(sys.codomain), len(sys.domain)), dtype=complex)
    for x in sys.E:
        col = sys.domain.index(x)
        for y in sys.block(x):
            row = sys.codomain.index(y)
            hval = h(y).real
            entries[row, col] = sys.g[y] * hval ** (1.0 / p)
    return OperatorMatrix(sys.domain, sys.codomain, p, entries)


def reverse(sys: SpatialSystem) -> SpatialSystem:
    """The reverse system (F, E, S^-1, pushforward of 1/g); the unique t
    with t s = m(chi_E) and s t = m(chi_F).  Spatial systems only.

    The inverted phase is computed as the conjugate (equal to 1/g on the
    unit circle), which keeps the reverse an exact involution.
    """
    if not sys.spatial:
        raise ValueError("the reverse is defined for spatial systems only")
    inv = sys.transform.inverse()
    g_rev = {x: sys.g[sys.image_atom(x)].conjugate() for x in sys.E}
    return SpatialSystem(sys.codomain, sys.domain, sys.F, sys.E, inv, g_rev)


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
    """
    p = A.p
    mu = A.source.weights
    nu = A.target.weights
    abs_entries = np.abs(A.entries)
    scale = max(1.0, float(abs_entries.max(initial=0.0)))
    support_cut = tol * scale

    columns = {}
    owner = {}
    for col, x in enumerate(A.source.atoms):
        rows = np.nonzero(abs_entries[:, col] > support_cut)[0]
        if rows.size == 0:
            continue
        for r in rows:
            y = A.target.atoms[r]
            if y in owner:
                return Rejection(
                    "overlapping column supports",
                    {"columns": [str(owner[y]), str(x)], "row": str(y)},
                )
            owner[y] = x
        columns[x] = rows

    E = tuple(x for x in A.source.atoms if x in columns)
    blocks = {}
    g = {}
    h = {}
    for x in E:
        rows = columns[x]
        col = A.source.index(x)
        block_nu = float(nu[rows].sum())
        hval = float(mu[A.source.index(x)]) / block_nu
        expected = hval ** (1.0 / p)
        for r in rows:
            y = A.target.atoms[r]
            value = A.entries[r, col]
            if abs(abs(value) - expected) > tol * max(1.0, expected):
                return Rejection(
                    "block-constancy failure",
                    {
                        "column": str(x),
                        "row": str(y),
                        "modulus": float(abs(value)),
                        "expected": expected,
                    },
                )
            mod = abs(value)
            # componentwise division keeps real phases exact
            g[y] = complex(value.real / mod, value.imag / mod)
            h[y] = hval
        blocks[x] = frozenset(A.target.atoms[r] for r in rows)

    F = tuple(y for y in A.target.atoms if y in owner)
    transform = SetTransformation(
        A.source.subspace(E), A.target.subspace(F), blocks
    )
    system = SpatialSystem(A.source, A.target, E, F, transform, g)
    recon = materialize(system, p)
    err = float(np.max(np.abs(recon.entries - A.entries), initial=0.0))
    if err > tol * scale:
        return Rejection(
            "reconstruction mismatch", {"max_abs_error": err}
        )
    return SemispatialDecomposition(
        system=system, h=h, spatial=system.spatial
    )


def classify_idempotent(A: OperatorMatrix, tol: float = MATRIX_TOL):
    """Support of an idempotent spatial partial isometry: accepts iff A
    is diagonal with entries 0 or 1, returning the support atoms."""
    if A.source != A.target:
        raise ValueError("idempotents act on a single space")
    B = A.entries
    diagonal = np.eye(len(A.source), dtype=bool)
    unit = np.abs(B - 1.0) <= tol
    bad = (np.abs(B) > tol) & ~(diagonal & unit)
    if bad.any():
        # the first fault in row-major order
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        value = B[i, j]
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
    return tuple(A.source.atoms[i] for i in np.flatnonzero(np.diagonal(unit)))


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
    source = space_from_json(data["source"])
    target = space_from_json(data["target"])
    entries = np.array(
        [[complex(e["re"], e["im"]) for e in row] for row in data["entries"]],
        dtype=complex,
    ).reshape(len(target), len(source))
    return OperatorMatrix(source, target, float(data["p"]), entries)
