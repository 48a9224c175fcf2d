"""Finite measure spaces and set transformations."""

import itertools

import numpy as np
import pytest

import lpcuntz as lp
from lpcuntz.measure import AtomFunction, FiniteMeasureSpace, SetTransformation
from lpcuntz.sampling import random_semispatial_system


def two_block_transform():
    src = FiniteMeasureSpace(["x1", "x2"], [1.0, 2.0])
    tgt = FiniteMeasureSpace(["y1", "y2", "y3"], [3.0, 4.0, 5.0])
    S = SetTransformation(src, tgt, {"x1": {"y1", "y2"}, "x2": {"y3"}})
    return src, tgt, S


def test_space_construction():
    sp = FiniteMeasureSpace(["a", "b", "c"], [1.0, 0.0, 2.0])
    assert sp.atoms == ("a", "c")  # null atoms deleted
    with pytest.raises(ValueError):
        FiniteMeasureSpace(["a"], [-1.0])
    with pytest.raises(ValueError):
        FiniteMeasureSpace(["a", "a"], [1.0, 1.0])


def test_transformation_validation():
    src = FiniteMeasureSpace(["x1", "x2"], [1, 1])
    tgt = FiniteMeasureSpace(["y1", "y2"], [1, 1])
    with pytest.raises(ValueError):  # overlap
        SetTransformation(src, tgt, {"x1": {"y1"}, "x2": {"y1"}})
    with pytest.raises(ValueError):  # empty block
        SetTransformation(src, tgt, {"x1": set(), "x2": {"y1"}})
    with pytest.raises(ValueError):  # missing source atom
        SetTransformation(src, tgt, {"x1": {"y1"}})


def test_pushforward_function_examples():
    src, tgt, S = two_block_transform()
    chi = lp.indicator(src, ["x1"])
    out = lp.pushforward_function(S, chi)
    assert out == lp.indicator(tgt, ["y1", "y2"])
    ident = lp.identity_transformation(src)
    xi = AtomFunction(src, [1.5, -2j])
    assert lp.pushforward_function(ident, xi) == xi
    # |S_* xi|^p = S_*(|xi|^p)
    p = 2.7
    push = lp.pushforward_function(S, xi)
    mods = lp.pushforward_function(S, AtomFunction(src, np.abs(xi.values) ** p))
    assert np.allclose(np.abs(push.values) ** p, mods.values.real)


def test_pushforward_linear_and_multiplicative():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sys = random_semispatial_system(rng, max_atoms=6)
        S = sys.transform
        n = len(S.source)
        xi = AtomFunction(S.source, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        eta = AtomFunction(S.source, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        both = AtomFunction(S.source, 2.0 * xi.values - 1j * eta.values)
        lin = lp.pushforward_function(S, both)
        assert np.allclose(
            lin.values,
            2.0 * lp.pushforward_function(S, xi).values
            - 1j * lp.pushforward_function(S, eta).values,
            atol=1e-12,
        )
        prod = AtomFunction(S.source, xi.values * eta.values)
        assert np.allclose(
            lp.pushforward_function(S, prod).values,
            lp.pushforward_function(S, xi).values * lp.pushforward_function(S, eta).values,
            atol=1e-12,
        )


def test_pushforward_injective():
    src, tgt, S = two_block_transform()
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = AtomFunction(src, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert np.abs(lp.pushforward_function(S, xi).values).max() > 0


def test_pullback_measure_examples():
    src, tgt, S = two_block_transform()
    lam = {"y1": 3.0, "y2": 4.0, "y3": 5.0}
    back = lp.pullback_measure(S, lam)
    assert back == {"x1": 7.0, "x2": 5.0}
    ident = lp.identity_transformation(tgt)
    assert lp.pullback_measure(ident, lam) == lam


def test_change_of_variables():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sys = random_semispatial_system(rng, max_atoms=6)
        S = sys.transform
        xi = AtomFunction(
            S.source,
            rng.standard_normal(len(S.source)) + 1j * rng.standard_normal(len(S.source)),
        )
        lam = {y: float(rng.uniform(0.1, 3)) for y in S.target.atoms}
        lhs = sum(xi(a) * lp.pullback_measure(S, lam)[a] for a in S.source.atoms)
        rhs = sum(
            lp.pushforward_function(S, xi)(y) * lam[y] for y in S.target.atoms
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_pushforward_measure_block_level():
    src, tgt, S = two_block_transform()
    push = lp.pushforward_measure(S)
    assert push[frozenset({"y1", "y2"})] == 1.0
    assert push[frozenset({"y3"})] == 2.0
    # singleton blocks reduce to a plain map of atom masses
    sp = FiniteMeasureSpace(["a"], [3.0])
    sq = FiniteMeasureSpace(["b"], [7.0])
    S1 = SetTransformation(sp, sq, {"a": {"b"}})
    assert lp.pushforward_measure(S1) == {frozenset({"b"}): 3.0}


def test_pushforward_pullback_round_trip():
    src, tgt, S = two_block_transform()
    h = lp.rn_derivative(S)
    lam = {y: h(y).real * tgt.weight(y) for y in tgt.atoms}
    back = lp.pullback_measure(S, lam)
    assert abs(back["x1"] - 1.0) < 1e-12 and abs(back["x2"] - 2.0) < 1e-12


def test_rn_derivative_examples():
    src = FiniteMeasureSpace(["x"], [2.0])
    tgt = FiniteMeasureSpace(["y"], [4.0])
    S = SetTransformation(src, tgt, {"x": {"y"}})
    assert lp.rn_derivative(S)("y") == pytest.approx(0.5)
    # measure-preserving bijection gives h = 1
    sp = FiniteMeasureSpace(["a", "b"], [1.0, 2.0])
    sp2 = FiniteMeasureSpace(["c", "d"], [2.0, 1.0])
    S2 = SetTransformation(sp, sp2, {"a": {"d"}, "b": {"c"}})
    h = lp.rn_derivative(S2)
    assert np.allclose(h.values, 1.0)


def test_rn_chain_rule_bijective():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        src = FiniteMeasureSpace([f"x{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        tgt = FiniteMeasureSpace([f"y{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        perm = rng.permutation(n)
        S = SetTransformation(
            src, tgt, {src.atoms[i]: {tgt.atoms[perm[i]]} for i in range(n)}
        )
        sigma = {a: float(rng.uniform(0.2, 2)) for a in src.atoms}
        lam = {a: float(rng.uniform(0.2, 2)) for a in src.atoms}
        lhs = lp.rn_derivative(S, sigma).values / lp.rn_derivative(S, lam).values
        rhs = lp.pushforward_function(
            S, AtomFunction(src, {a: sigma[a] / lam[a] for a in src.atoms})
        ).values
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_compose():
    src, mid, S = two_block_transform()
    tgt = FiniteMeasureSpace(["z1", "z2", "z3", "z4"], [1, 1, 1, 1])
    T = SetTransformation(mid, tgt, {"y1": {"z1"}, "y2": {"z2", "z3"}, "y3": {"z4"}})
    TS = lp.compose(T, S)
    assert TS.blocks["x1"] == frozenset({"z1", "z2", "z3"})
    assert TS.blocks["x2"] == frozenset({"z4"})
    xi = AtomFunction(src, [2.0, -1.0])
    lhs = lp.pushforward_function(TS, xi)
    rhs = lp.pushforward_function(T, lp.pushforward_function(S, xi))
    assert lhs == rhs
    with pytest.raises(ValueError):
        lp.compose(S, S)


def test_sigma_homomorphism_laws_exhaustive():
    rng = np.random.default_rng(4)
    for _ in range(5):
        sys = random_semispatial_system(rng, max_atoms=5)
        S = sys.transform
        atoms = S.source.atoms
        subsets = [
            {a for a, bit in zip(atoms, bits) if bit}
            for bits in itertools.product([0, 1], repeat=len(atoms))
        ]
        for E in subsets:
            for F in subsets:
                assert S.image_of_set(E | F) == S.image_of_set(E) | S.image_of_set(F)
                assert S.image_of_set(E & F) == S.image_of_set(E) & S.image_of_set(F)
                if not (E & F):
                    assert not (S.image_of_set(E) & S.image_of_set(F))


def test_surjectivity_criterion_exhaustive():
    # bijective (singleton blocks covering the target) iff pushforward
    # of functions is onto, checked as rank over small spaces
    rng = np.random.default_rng(5)
    for _ in range(40):
        sys = random_semispatial_system(rng, max_atoms=4)
        S = sys.transform
        n, m = len(S.source), len(S.target)
        mat = np.zeros((m, n))
        for i, a in enumerate(S.source.atoms):
            e = np.zeros(n)
            e[i] = 1.0
            mat[:, i] = lp.pushforward_function(S, AtomFunction(S.source, e)).values.real
        onto = np.linalg.matrix_rank(mat) == m
        assert onto == S.is_bijective()
