"""Seeded generators for random measure spaces, set transformations,
and (semi)spatial systems; used by the verification suites and tests.
Every generator takes an explicit numpy Generator, so runs are
reproducible from a single seed."""

from __future__ import annotations

import numpy as np

from .measure import FiniteMeasureSpace, SetTransformation
from .spatial import SpatialSystem


def random_space(rng, max_atoms: int = 6, prefix: str = "x") -> FiniteMeasureSpace:
    n = int(rng.integers(1, max_atoms + 1))
    weights = rng.uniform(0.5, 2.0, size=n)
    return FiniteMeasureSpace([f"{prefix}{i}" for i in range(n)], weights)


def random_phases(rng, atoms) -> dict:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=len(atoms))
    return {a: complex(np.cos(t), np.sin(t)) for a, t in zip(atoms, angles)}


def random_spatial_system(rng, max_atoms: int = 6, domain=None, codomain=None) -> SpatialSystem:
    """Random spatial system: a partial bijection E -> F with phases."""
    domain = domain if domain is not None else random_space(rng, max_atoms, "x")
    codomain = codomain if codomain is not None else random_space(rng, max_atoms, "y")
    k = int(rng.integers(1, min(len(domain), len(codomain)) + 1))
    E = [domain.atoms[i] for i in sorted(rng.choice(len(domain), size=k, replace=False))]
    F = [codomain.atoms[i] for i in sorted(rng.choice(len(codomain), size=k, replace=False))]
    image = list(rng.permutation(k))
    blocks = {x: frozenset([F[image[i]]]) for i, x in enumerate(E)}
    transform = SetTransformation(domain.subspace(E), codomain.subspace(F), blocks)
    return SpatialSystem(domain, codomain, E, F, transform, random_phases(rng, F))


def random_semispatial_system(rng, max_atoms: int = 8) -> SpatialSystem:
    """Random semispatial system: blocks may have several atoms."""
    domain = random_space(rng, max(2, max_atoms // 2), "x")
    codomain = random_space(rng, max_atoms, "y")
    k = int(rng.integers(1, min(len(domain), len(codomain)) + 1))
    E = [domain.atoms[i] for i in sorted(rng.choice(len(domain), size=k, replace=False))]
    m = int(rng.integers(k, len(codomain) + 1))
    F = [codomain.atoms[i] for i in sorted(rng.choice(len(codomain), size=m, replace=False))]
    cuts = sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else []
    pieces = np.split(np.array(F, dtype=object), cuts)
    blocks = {x: frozenset(piece.tolist()) for x, piece in zip(E, pieces)}
    transform = SetTransformation(domain.subspace(E), codomain.subspace(F), blocks)
    return SpatialSystem(domain, codomain, E, F, transform, random_phases(rng, F))


def random_composable_pair(rng, max_atoms: int = 5):
    """(v, s) spatial systems with codomain(s) = domain(v)."""
    shared = random_space(rng, max_atoms, "m")
    s = random_spatial_system(rng, max_atoms, codomain=shared)
    v = random_spatial_system(rng, max_atoms, domain=shared)
    return v, s


def random_element(rng, kind, max_terms: int = 4, max_len: int = 3):
    """Random exact element with small integer-complex coefficients."""
    from .leavitt import QC, AlgebraElement

    d = kind.d if kind.d is not None else 4
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        la = int(rng.integers(0, max_len + 1))
        lb = int(rng.integers(0, max_len + 1))
        alpha = tuple(int(x) for x in rng.integers(1, d + 1, size=la))
        beta = tuple(int(x) for x in rng.integers(1, d + 1, size=lb))
        coeff = QC(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if coeff.is_zero():
            coeff = QC(1)
        acc = terms.get((alpha, beta))
        terms[(alpha, beta)] = coeff if acc is None else acc + coeff
    return AlgebraElement(kind, terms)
