"""Finite atomic measure spaces and measurable set transformations.

A FiniteMeasureSpace is an ordered list of atoms with strictly positive
weights (atoms of weight zero are dropped at construction, so the only
null set is the empty set).  A SetTransformation assigns to every
source atom a nonempty block of target atoms, blocks pairwise disjoint;
the induced map on subsets E -> union of blocks is then an injective
sigma-homomorphism.  Pushforwards of functions and measures, pullbacks,
and Radon-Nikodym derivatives all reduce to finite sums over blocks.

Values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import numpy as np

WEIGHT_RTOL = 1e-12  # relative tolerance for weight comparisons


class FiniteMeasureSpace:
    __slots__ = ("atoms", "weights", "_index")

    def __init__(self, atoms, weights):
        atoms = list(atoms)
        weights = [float(w) for w in weights]
        if len(weights) != len(atoms):
            raise ValueError("one weight per atom required")
        kept_atoms, kept_weights = [], []
        for a, w in zip(atoms, weights):
            if w < 0:
                raise ValueError(f"negative weight {w} for atom {a!r}")
            if w == 0:
                continue  # null atoms are deleted
            kept_atoms.append(a)
            kept_weights.append(w)
        if len(set(kept_atoms)) != len(kept_atoms):
            raise ValueError("atom identifiers must be unique")
        object.__setattr__(self, "atoms", tuple(kept_atoms))
        arr = np.asarray(kept_weights, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(kept_atoms)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMeasureSpace is immutable")

    def __len__(self):
        return len(self.atoms)

    def index(self, atom) -> int:
        return self._index[atom]

    def weight(self, atom) -> float:
        return float(self.weights[self._index[atom]])

    def subspace(self, atoms) -> "FiniteMeasureSpace":
        atoms = set(atoms)
        return self._restrict([i for i, a in enumerate(self.atoms) if a in atoms])

    def _restrict(self, positions) -> "FiniteMeasureSpace":
        """The subspace on the atoms at the ascending ``positions``,
        without the checks of the constructor: the atoms of a space are
        unique and their weights positive, so those of a subspace are."""
        positions = np.asarray(positions, dtype=np.intp)
        space = object.__new__(FiniteMeasureSpace)
        atoms = tuple(map(self.atoms.__getitem__, positions.tolist()))
        weights = self.weights[positions]
        weights.flags.writeable = False
        object.__setattr__(space, "atoms", atoms)
        object.__setattr__(space, "weights", weights)
        object.__setattr__(space, "_index", {a: i for i, a in enumerate(atoms)})
        return space

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasureSpace):
            return NotImplemented
        return self.atoms == other.atoms and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = None

    def __repr__(self):
        return f"FiniteMeasureSpace({len(self)} atoms, total {self.weights.sum():g})"


def product_space(x: FiniteMeasureSpace, y: FiniteMeasureSpace) -> FiniteMeasureSpace:
    """Product measure; atom order matches the Kronecker convention
    (first factor major)."""
    atoms = [(a, b) for a in x.atoms for b in y.atoms]
    weights = np.kron(x.weights, y.weights)
    return FiniteMeasureSpace(atoms, weights)


def disjoint_union(spaces) -> FiniteMeasureSpace:
    """Disjoint union; atoms tagged with the summand index."""
    atoms, weights = [], []
    for i, sp in enumerate(spaces):
        atoms.extend((i, a) for a in sp.atoms)
        weights.extend(sp.weights)
    return FiniteMeasureSpace(atoms, weights)


class AtomFunction:
    """A complex-valued function on the atoms of a space."""

    __slots__ = ("space", "values")

    def __init__(self, space: FiniteMeasureSpace, values):
        if hasattr(values, "get"):
            values = [values.get(a, 0.0) for a in space.atoms]
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (len(space),):
            raise ValueError("one value per atom required")
        arr.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AtomFunction is immutable")

    def __call__(self, atom) -> complex:
        return complex(self.values[self.space.index(atom)])

    def __eq__(self, other):
        if not isinstance(other, AtomFunction):
            return NotImplemented
        return self.space == other.space and np.array_equal(
            self.values, other.values
        )

    __hash__ = None


def indicator(space: FiniteMeasureSpace, atoms) -> AtomFunction:
    subset = set(atoms)
    return AtomFunction(space, [1.0 if a in subset else 0.0 for a in space.atoms])


class SetTransformation:
    """Disjoint-block map on atoms; the finite form of an injective
    sigma-homomorphism of measurable sets mod null sets."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: FiniteMeasureSpace, target: FiniteMeasureSpace, blocks):
        blocks = {a: frozenset(b) for a, b in dict(blocks).items()}
        if set(blocks) != set(source.atoms):
            raise ValueError("blocks must be defined on exactly the source atoms")
        seen = set()
        for a, block in blocks.items():
            if not block:
                raise ValueError(f"empty block for atom {a!r}")
            for y in block:
                if y not in target._index:
                    raise ValueError(f"block atom {y!r} not in target space")
                if y in seen:
                    raise ValueError(f"blocks overlap at target atom {y!r}")
                seen.add(y)
        self._freeze(source, target, blocks)

    @classmethod
    def _own(cls, source, target, blocks: dict) -> "SetTransformation":
        """The transformation with ``blocks``, a dict from every source atom
        to a nonempty frozenset of target atoms, the frozensets pairwise
        disjoint, that the package built itself: no copy, no check."""
        S = object.__new__(cls)
        S._freeze(source, target, blocks)
        return S

    def _freeze(self, source, target, blocks):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("SetTransformation is immutable")

    def block(self, atom) -> frozenset:
        return self.blocks[atom]

    def image_of_set(self, atoms) -> frozenset:
        out = set()
        for a in atoms:
            out |= self.blocks[a]
        return frozenset(out)

    def range_atoms(self) -> frozenset:
        return self.image_of_set(self.source.atoms)

    def is_bijective(self) -> bool:
        return all(len(b) == 1 for b in self.blocks.values()) and self.range_atoms() == set(
            self.target.atoms
        )

    def inverse(self) -> "SetTransformation":
        if not self.is_bijective():
            raise ValueError("only bijective transformations invert")
        inv = {next(iter(b)): frozenset([a]) for a, b in self.blocks.items()}
        return SetTransformation(self.target, self.source, inv)

    def __eq__(self, other):
        if not isinstance(other, SetTransformation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    __hash__ = None


def identity_transformation(space: FiniteMeasureSpace) -> SetTransformation:
    return SetTransformation(space, space, {a: frozenset([a]) for a in space.atoms})


def pushforward_function(S: SetTransformation, xi: AtomFunction) -> AtomFunction:
    """S_* xi: constant xi(x) on the block of x, zero off the range."""
    if xi.space != S.source:
        raise ValueError("function lives on the wrong space")
    values = np.zeros(len(S.target), dtype=complex)
    for a in S.source.atoms:
        v = xi.values[S.source.index(a)]
        for y in S.blocks[a]:
            values[S.target.index(y)] = v
    return AtomFunction(S.target, values)


def pullback_measure(S: SetTransformation, lam: dict) -> dict:
    """S^* lambda on source atoms: the lambda-mass of each block."""
    return {a: float(sum(lam.get(y, 0.0) for y in S.blocks[a])) for a in S.source.atoms}


def pushforward_measure(S: SetTransformation, mu=None) -> dict:
    """S_* mu as block-level data: each block carries the mass of its
    source atom.  Defined on the range sigma-algebra, which the blocks
    generate, rather than atom by atom."""
    if mu is None:
        mu = {a: S.source.weight(a) for a in S.source.atoms}
    return {S.blocks[a]: float(mu[a]) for a in S.source.atoms}


def _block_rows(S: SetTransformation, index=None) -> tuple:
    """The blocks of S read into arrays, the blocks in source order and
    each block's atoms by their position in ``index`` (S.target's by
    default), so that sums over a block do not depend on the hash seed
    that orders a frozenset: the list of block atoms, ``rows``, the
    position of each in ``index``, and ``block_of``, the source position
    of its block."""
    index = S.target._index if index is None else index
    blocks = list(map(S.blocks.__getitem__, S.source.atoms))
    atoms = [y for b in blocks for y in b]
    rows = np.fromiter(map(index.__getitem__, atoms), dtype=np.intp, count=len(atoms))
    block_of = np.repeat(np.arange(len(blocks)), list(map(len, blocks)))
    order = np.lexsort((rows, block_of))
    return list(map(atoms.__getitem__, order.tolist())), rows[order], block_of


def rn_derivative(S: SetTransformation, mu=None, nu=None) -> AtomFunction:
    """d(S_* mu)/d nu as a block-constant function on the target,
    zero off the range of S.  Each block's nu-mass is summed in target
    order."""
    _, rows, block_of = _block_rows(S)
    if mu is None:
        mu = S.source.weights
    else:
        mu = np.array([float(mu[a]) for a in S.source.atoms])
    if nu is None:
        nu_rows = S.target.weights[rows]
    else:
        nu_rows = np.array([float(nu[S.target.atoms[r]]) for r in rows.tolist()])
    block_nu = np.bincount(block_of, weights=nu_rows, minlength=len(S.source))
    values = np.zeros(len(S.target), dtype=complex)
    values[rows] = (mu / block_nu)[block_of]
    return AtomFunction(S.target, values)


def compose(T: SetTransformation, S: SetTransformation) -> SetTransformation:
    """T after S: blocks are unions of T-blocks over each S-block."""
    if S.target != T.source:
        raise ValueError("target of S must be the source of T")
    blocks = {a: T.image_of_set(S.blocks[a]) for a in S.source.atoms}
    return SetTransformation(S.source, T.target, blocks)


# -- JSON ----------------------------------------------------------------


def space_to_json(space: FiniteMeasureSpace) -> dict:
    return {
        "atoms": [str(a) for a in space.atoms],
        "weights": [float(w) for w in space.weights],
    }


def space_from_json(data: dict) -> FiniteMeasureSpace:
    return FiniteMeasureSpace(list(data["atoms"]), list(data["weights"]))
