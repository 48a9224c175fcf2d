"""Spatial systems, their operators, and the decomposition detector."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import lpcuntz as lp
from lpcuntz.measure import rn_derivative, space_from_json, space_to_json
from lpcuntz.sampling import (
    random_composable_pair,
    random_semispatial_system,
    random_spatial_system,
)
from lpcuntz.spatial import (
    Rejection,
    indicator_operator,
    matrix_from_json,
    matrix_to_json,
    system_from_json,
    system_to_json,
    unweighted_kernel,
    weighted_to_unweighted,
)


def phase_example():
    dom = lp.FiniteMeasureSpace(["x"], [1.0])
    cod = lp.FiniteMeasureSpace(["y1", "y2"], [1.0, 1.0])
    S = lp.SetTransformation(dom, cod, {"x": {"y1", "y2"}})
    return lp.SpatialSystem(dom, cod, ["x"], ["y1", "y2"], S, {"y1": 1.0, "y2": -1.0})


def test_system_validation():
    dom = lp.FiniteMeasureSpace(["x"], [1.0])
    cod = lp.FiniteMeasureSpace(["y"], [1.0])
    S = lp.SetTransformation(dom, cod, {"x": {"y"}})
    with pytest.raises(ValueError):  # phase off the unit circle
        lp.SpatialSystem(dom, cod, ["x"], ["y"], S, {"y": 2.0})
    with pytest.raises(ValueError):  # phase on the wrong atoms
        lp.SpatialSystem(dom, cod, ["x"], ["y"], S, {"z": 1.0})


def test_materialize_examples():
    sys = phase_example()
    assert not sys.spatial
    for p in (1.0, 1.5, 2.0, 3.0):
        A = lp.materialize(sys, p)
        expected = 2.0 ** (-1.0 / p)
        assert np.allclose(A.entries[:, 0], [expected, -expected])
    space = lp.FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    ident = lp.identity_system(space)
    assert np.allclose(lp.materialize(ident, 1.7).entries, np.eye(2))
    # singleton block with weights 1 -> 4 gives the ratio (1/4)^(1/p)
    dom = lp.FiniteMeasureSpace(["x"], [1.0])
    cod = lp.FiniteMeasureSpace(["y"], [4.0])
    S = lp.SetTransformation(dom, cod, {"x": {"y"}})
    sys2 = lp.SpatialSystem(dom, cod, ["x"], ["y"], S, {"y": 1j})
    A = lp.materialize(sys2, 3.0)
    assert A.entries[0, 0] == pytest.approx(1j * 0.25 ** (1 / 3.0))


def test_materialized_isometry_on_domain():
    rng = np.random.default_rng(0)
    for _ in range(25):
        sys = random_semispatial_system(rng)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        A = lp.materialize(sys, p)
        E_idx = [sys.domain.index(x) for x in sys.E]
        for _ in range(8):
            xi = np.zeros(len(sys.domain), dtype=complex)
            vals = rng.standard_normal(len(E_idx)) + 1j * rng.standard_normal(len(E_idx))
            xi[E_idx] = vals
            assert lp.vector_norm(sys.codomain, A.apply(xi), p) == pytest.approx(
                lp.vector_norm(sys.domain, xi, p), abs=1e-10
            )
        est = lp.power_estimate(A, restarts=6, seed=3).estimate
        assert est <= 1.0 + 1e-8


def test_range_support():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sys = random_spatial_system(rng)
        A = lp.materialize(sys, 1.5)
        rows = np.nonzero(np.abs(A.entries).max(axis=1) > 1e-14)[0]
        assert {sys.codomain.atoms[r] for r in rows} == set(sys.F)


def test_reverse_laws():
    rng = np.random.default_rng(2)
    for _ in range(30):
        sys = random_spatial_system(rng)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        s = lp.materialize(sys, p)
        t = lp.materialize(lp.reverse(sys), p)
        me = indicator_operator(sys.domain, sys.E, p).entries
        mf = indicator_operator(sys.codomain, sys.F, p).entries
        assert np.abs(t.entries @ s.entries - me).max() < 1e-12
        assert np.abs(s.entries @ t.entries - mf).max() < 1e-12
        # involution
        back = lp.reverse(lp.reverse(sys))
        assert back == sys


def test_reverse_requires_spatial():
    with pytest.raises(ValueError):
        lp.reverse(phase_example())


def test_reverse_is_adjoint_at_p2():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sys = random_spatial_system(rng)
        s = lp.materialize(sys, 2.0)
        t = lp.materialize(lp.reverse(sys), 2.0)
        # adjoint with respect to the weighted inner products
        adj = (
            np.diag(1.0 / sys.domain.weights)
            @ s.entries.conj().T
            @ np.diag(sys.codomain.weights)
        )
        assert np.abs(t.entries - adj).max() < 1e-12


def test_compose_systems():
    rng = np.random.default_rng(4)
    for _ in range(40):
        v, s = random_composable_pair(rng)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        vs = lp.compose_systems(v, s)
        lhs = lp.materialize(vs, p).entries
        rhs = lp.materialize(v, p).entries @ lp.materialize(s, p).entries
        assert np.abs(lhs - rhs).max() < 1e-12
        # reverse of the composite
        rev = lp.compose_systems(lp.reverse(s), lp.reverse(v))
        assert np.abs(
            lp.materialize(rev, p).entries
            - lp.materialize(lp.reverse(vs), p).entries
        ).max() < 1e-12


def test_compose_identity():
    rng = np.random.default_rng(5)
    sys = random_spatial_system(rng)
    ident = lp.identity_system(sys.codomain)
    assert lp.compose_systems(ident, sys) == sys


def test_tensor_systems():
    rng = np.random.default_rng(6)
    for _ in range(25):
        s = random_spatial_system(rng, max_atoms=4)
        v = random_spatial_system(rng, max_atoms=4)
        p = float(rng.choice([1.0, 1.5, 3.0]))
        tens = lp.tensor_systems(s, v)
        lhs = lp.materialize(tens, p).entries
        rhs = np.kron(lp.materialize(s, p).entries, lp.materialize(v, p).entries)
        assert np.abs(lhs - rhs).max() < 1e-12
    # tensoring with a one-point identity relabels
    s = random_spatial_system(rng)
    point = lp.FiniteMeasureSpace(["pt"], [1.0])
    tens = lp.tensor_systems(s, lp.identity_system(point))
    assert np.abs(
        lp.materialize(tens, 2.0).entries - lp.materialize(s, 2.0).entries
    ).max() < 1e-14


def test_dual_systems():
    rng = np.random.default_rng(7)
    for _ in range(30):
        sys = random_spatial_system(rng)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        dsys, q = lp.dual(sys, p)
        assert q == pytest.approx(p / (p - 1.0))
        D = lp.materialize(dsys, q).entries
        adj = lp.pairing_adjoint(lp.materialize(sys, p)).entries
        assert np.abs(D - adj).max() < 1e-12
        # pairing identity on random vectors
        A = lp.materialize(sys, p)
        for _ in range(5):
            xi = rng.standard_normal(len(sys.domain)) + 1j * rng.standard_normal(len(sys.domain))
            eta = rng.standard_normal(len(sys.codomain)) + 1j * rng.standard_normal(len(sys.codomain))
            lhs = np.sum(sys.codomain.weights * A.apply(xi) * eta)
            rhs = np.sum(sys.domain.weights * xi * (D @ eta))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    with pytest.raises(ValueError):
        lp.dual(random_spatial_system(rng), 1.0)


def test_dual_p2_real_phase_is_reverse():
    rng = np.random.default_rng(8)
    sys = random_spatial_system(rng)
    real_g = {y: 1.0 for y in sys.F}
    sys = lp.SpatialSystem(sys.domain, sys.codomain, sys.E, sys.F, sys.transform, real_g)
    dsys, q = lp.dual(sys, 2.0)
    assert q == 2.0
    assert np.abs(
        lp.materialize(dsys, 2.0).entries
        - lp.materialize(lp.reverse(sys), 2.0).entries
    ).max() < 1e-14


# -- detector -----------------------------------------------------------------


def test_detect_round_trip():
    rng = np.random.default_rng(9)
    for i in range(120):
        sys = (
            random_spatial_system(rng, max_atoms=8)
            if i % 2
            else random_semispatial_system(rng, max_atoms=8)
        )
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        A = lp.materialize(sys, p)
        res = lp.detect(A)
        assert res.accepted
        assert set(res.system.E) == set(sys.E)
        assert set(res.system.F) == set(sys.F)
        assert all(res.system.block(x) == sys.block(x) for x in sys.E)
        assert res.spatial == sys.spatial
        h = rn_derivative(sys.transform)
        for y in sys.F:
            assert abs(res.system.g[y] - sys.g[y]) < 1e-10
            assert abs(res.h[y] - h(y).real) < 1e-10


def test_detect_rejections():
    sq = lp.FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    c = 2.0 ** -0.5
    rot = lp.OperatorMatrix(sq, sq, 3.0, np.array([[c, -c], [c, c]]))
    res = lp.detect(rot)
    assert isinstance(res, Rejection)
    assert res.reason == "overlapping column supports"
    # block-constancy violation: disjoint supports but wrong moduli
    bad = lp.OperatorMatrix(sq, sq, 3.0, np.diag([1.0, 0.5]))
    res = lp.detect(bad)
    assert isinstance(res, Rejection) and res.reason == "block-constancy failure"
    assert "row" in res.witness
    # an isometry with non-constant column moduli is not semispatial
    dom = lp.FiniteMeasureSpace(["x"], [1.0])
    cod = lp.FiniteMeasureSpace(["y1", "y2"], [1.0, 1.0])
    t = 0.3
    col = np.array([[t ** (1 / 3.0)], [(1 - t) ** (1 / 3.0)]])
    iso = lp.OperatorMatrix(dom, cod, 3.0, col)
    assert isinstance(lp.detect(iso), Rejection)


def test_detect_phase_example():
    sys = phase_example()
    res = lp.detect(lp.materialize(sys, 3.0))
    assert res.accepted and not res.spatial


def test_detect_zero_columns_define_E():
    dom = lp.FiniteMeasureSpace(["x1", "x2"], [1.0, 1.0])
    cod = lp.FiniteMeasureSpace(["y"], [1.0])
    A = lp.OperatorMatrix(dom, cod, 1.5, np.array([[1.0, 0.0]]))
    res = lp.detect(A)
    assert res.accepted and res.system.E == ("x1",) and res.system.F == ("y",)


def test_classify_idempotent():
    space = lp.FiniteMeasureSpace(["a", "b", "c"], [1.0, 2.0, 3.0])
    ident = lp.OperatorMatrix(space, space, 2.0, np.eye(3))
    assert lp.classify_idempotent(ident) == ("a", "b", "c")
    zero = lp.OperatorMatrix(space, space, 2.0, np.zeros((3, 3)))
    assert lp.classify_idempotent(zero) == ()
    diag = lp.OperatorMatrix(space, space, 2.0, np.diag([1.0, 0.0, 1.0]))
    assert lp.classify_idempotent(diag) == ("a", "c")
    off = lp.OperatorMatrix(space, space, 2.0, np.array([[1, 0.5, 0], [0, 0, 0], [0, 0, 1]]))
    res = lp.classify_idempotent(off)
    assert isinstance(res, Rejection) and res.reason == "off-diagonal entry"
    half = lp.OperatorMatrix(space, space, 2.0, np.diag([0.5, 0, 0]))
    assert isinstance(lp.classify_idempotent(half), Rejection)


def loop_classify_idempotent(A, tol):
    """Reference: scan the entries one at a time in row-major order."""
    n = len(A.source)
    support = []
    for i in range(n):
        for j in range(n):
            value = A.entries[i, j]
            if i != j:
                if abs(value) > tol:
                    return Rejection(
                        "off-diagonal entry",
                        {"row": str(A.target.atoms[i]), "column": str(A.source.atoms[j]),
                         "value": [value.real, value.imag]},
                    )
            else:
                if abs(value - 1.0) <= tol:
                    support.append(A.source.atoms[i])
                elif abs(value) > tol:
                    return Rejection(
                        "diagonal entry not 0 or 1",
                        {"row": str(A.target.atoms[i]), "value": [value.real, value.imag]},
                    )
    return tuple(support)


@pytest.mark.parametrize("held", ["dense", "csr"])
def test_classify_idempotent_matches_loop_reference(held):
    space = lp.FiniteMeasureSpace(list("abcdef"), [1.0, 2.0, 0.5, 1.0, 3.0, 1.0])
    accepted = np.diag([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]).astype(complex)
    accepted[1, 1] = 1e-12  # below the tolerance: not in the support
    off_first = accepted.copy()
    off_first[2, 4] = 0.25 - 0.5j
    off_first[3, 3] = 0.5  # a later bad diagonal
    off_first[5, 0] = 2.0  # a later off-diagonal entry
    diag_first = accepted.copy()
    diag_first[2, 2] = 1j
    diag_first[2, 3] = 0.5  # a later off-diagonal entry in the same row
    diag_first[4, 1] = 0.75
    cases = [
        (accepted, None),
        (off_first, "off-diagonal entry"),
        (diag_first, "diagonal entry not 0 or 1"),
    ]
    for B, reason in cases:
        kernel = sparse.csr_matrix(B) if held == "csr" else B
        A = lp.OperatorMatrix(space, space, 3.0, kernel)
        got = lp.classify_idempotent(A, tol=1e-9)
        assert got == loop_classify_idempotent(A, 1e-9)
        if reason is None:
            assert got == ("a", "c", "d", "f")
        else:
            assert isinstance(got, Rejection) and got.reason == reason


def per_atom_materialize(sys, p):
    """Reference: the CSR kernel built atom by atom from COO, each block's
    mass added in codomain order."""
    rows, cols, values = [], [], []
    for x in sys.E:
        block = sorted(sys.block(x), key=sys.codomain.index)
        mass = 0.0
        for y in block:
            mass += sys.codomain.weight(y)
        h = sys.domain.weight(x) / mass
        for y in block:
            rows.append(sys.codomain.index(y))
            cols.append(sys.domain.index(x))
            values.append(sys.g[y] * h ** (1.0 / p))
    shape = (len(sys.codomain), len(sys.domain))
    return sparse.csr_array((np.array(values, dtype=complex), (rows, cols)), shape=shape)


def loop_detect(A, tol=1e-9):
    """Reference: the detector as a loop over dense columns."""
    p, mu, nu = A.p, A.source.weights, A.target.weights
    abs_entries = np.abs(A.entries)
    scale = max(1.0, float(abs_entries.max(initial=0.0)))
    columns, owner = {}, {}
    for col, x in enumerate(A.source.atoms):
        rows = np.nonzero(abs_entries[:, col] > tol * scale)[0]
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
    blocks, g, h = {}, {}, {}
    for x in E:
        rows, col = columns[x], A.source.index(x)
        hval = float(mu[col]) / float(nu[rows].sum())
        expected = hval ** (1.0 / p)
        for r in rows:
            y, value = A.target.atoms[r], A.entries[r, col]
            if abs(abs(value) - expected) > tol * max(1.0, expected):
                return Rejection(
                    "block-constancy failure",
                    {"column": str(x), "row": str(y), "modulus": float(abs(value)),
                     "expected": expected},
                )
            mod = abs(value)
            g[y] = complex(value.real / mod, value.imag / mod)
            h[y] = hval
        blocks[x] = frozenset(A.target.atoms[r] for r in rows)
    F = tuple(y for y in A.target.atoms if y in owner)
    transform = lp.SetTransformation(A.source.subspace(E), A.target.subspace(F), blocks)
    system = lp.SpatialSystem(A.source, A.target, E, F, transform, g)
    err = float(np.max(np.abs(per_atom_materialize(system, p).toarray() - A.entries), initial=0.0))
    if err > tol * scale:
        return Rejection("reconstruction mismatch", {"max_abs_error": err})
    return system, h


def big_block_system():
    """Semispatial system with blocks of 12 and 9 atoms of uneven
    weights, where ndarray.sum adds pairwise."""
    rng = np.random.default_rng(4)
    dom = lp.FiniteMeasureSpace(["x0", "x1", "x2"], [0.7, 1.3, 2.1])
    cod = lp.FiniteMeasureSpace([f"y{i}" for i in range(23)], rng.uniform(0.1, 3.0, 23))
    F = cod.atoms[:21]
    blocks = {"x0": set(F[:12]), "x2": set(F[12:])}
    S = lp.SetTransformation(dom.subspace(["x0", "x2"]), cod.subspace(F), blocks)
    phases = {y: np.exp(1j * t) for y, t in zip(F, rng.uniform(0, 2 * np.pi, 21))}
    return lp.SpatialSystem(dom, cod, ["x0", "x2"], F, S, phases)


def perturbations(K, rng):
    """K itself, then K with an overlap, a wrong modulus, a new phase and
    an entry below the support cut, each at a random support entry."""
    rows, cols = np.nonzero(K)
    k = int(rng.integers(rows.size))
    out = [K]
    others = np.flatnonzero(cols != cols[k])
    if others.size:
        overlap = K.copy()
        overlap[rows[k], cols[others[rng.integers(others.size)]]] = 0.5 - 0.25j
        out.append(overlap)
    for factor in (1.0 + 1e-6, np.exp(0.3j)):
        changed = K.copy()
        changed[rows[k], cols[k]] *= factor
        out.append(changed)
    faint = K.copy()
    faint[np.nonzero(K[:, cols[k]] == 0)[0][:1], cols[k]] = 1e-12
    out.append(faint)
    return out


def test_detect_and_materialize_match_loop_reference():
    rng = np.random.default_rng(17)
    systems = [big_block_system()]
    for i in range(40):
        if i % 2:
            systems.append(random_spatial_system(rng, max_atoms=10))
        else:
            systems.append(random_semispatial_system(rng, max_atoms=20))
    outcomes = set()
    for i, sys in enumerate(systems):
        p = (1.0, 1.5, 2.0, 3.0)[i % 4]
        A = lp.materialize(sys, p)
        assert sparse.issparse(A.kernel)
        reference = per_atom_materialize(sys, p).toarray()
        assert np.array_equal(A.entries, reference)
        for K in perturbations(reference, rng):
            for held in (K, sparse.csr_matrix(K)):
                B = lp.OperatorMatrix(sys.domain, sys.codomain, p, held)
                got, want = lp.detect(B), loop_detect(B)
                if isinstance(want, Rejection):
                    assert isinstance(got, Rejection)
                    assert (got.reason, got.witness) == (want.reason, want.witness)
                    outcomes.add(want.reason)
                else:
                    assert got.accepted and (got.system, got.h) == want
                    assert got.spatial == want[0].spatial
                    outcomes.add("accepted")
    assert outcomes == {"accepted", "overlapping column supports", "block-constancy failure"}


def blocky_system(rng, phases=None):
    """Seeded semispatial system whose blocks hold 1 to 16 atoms of
    uneven weights, so that some hold 8 or more."""
    n_dom, n_cod = 6, 48
    dom = lp.FiniteMeasureSpace([f"x{i}" for i in range(n_dom)], rng.uniform(0.1, 3.0, n_dom))
    cod = lp.FiniteMeasureSpace([f"y{i}" for i in range(n_cod)], rng.uniform(0.1, 3.0, n_cod))
    E = [dom.atoms[i] for i in sorted(rng.choice(n_dom, size=4, replace=False))]
    sizes = (1, 3, 8, 16)
    order = rng.permutation(n_cod)
    pieces = np.split(order[: sum(sizes)], np.cumsum(sizes)[:-1])
    blocks = {x: frozenset(cod.atoms[i] for i in piece) for x, piece in zip(E, pieces)}
    F = [cod.atoms[i] for piece in pieces for i in piece]
    S = lp.SetTransformation(dom.subspace(E), cod.subspace(F), blocks)
    g = phases(F) if phases else {y: np.exp(1j * t) for y, t in zip(F, rng.uniform(0, 2 * np.pi, len(F)))}
    return lp.SpatialSystem(dom, cod, E, F, S, g)


def seeded_systems(rng, phases=None):
    systems = [blocky_system(rng, phases) for _ in range(6)]
    for i in range(24):
        sys = random_spatial_system(rng, max_atoms=10) if i % 2 else random_semispatial_system(rng, max_atoms=20)
        if phases:
            sys = lp.SpatialSystem(sys.domain, sys.codomain, sys.E, sys.F, sys.transform, phases(sys.F))
        systems.append(sys)
    return systems


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 160.0])
def test_materialize_matches_per_atom_loop(p):
    rng = np.random.default_rng(24)
    for sys in [big_block_system(), *seeded_systems(rng)]:
        got, want = lp.materialize(sys, p).kernel, per_atom_materialize(sys, p)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_operator_rejects_a_non_finite_entry():
    space = lp.FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        K = np.eye(2, dtype=complex)
        K[1, 0] = bad
        for held in (K, sparse.csr_matrix(K)):
            with pytest.raises(ValueError, match="non-finite entry"):
                lp.OperatorMatrix(space, space, 3.0, held)


_BLOCK_OF_12 = """
import numpy as np
import lpcuntz as lp
rng = np.random.default_rng(48)
atoms = [f"y{i}" for i in range(12)]
src = lp.FiniteMeasureSpace(["x"], [1.0])
tgt = lp.FiniteMeasureSpace(atoms, rng.uniform(0.1, 3.0, 12))
S = lp.SetTransformation(src, tgt, {"x": set(atoms)})
system = lp.SpatialSystem(src, tgt, ["x"], atoms, S, {y: 1.0 for y in atoms})
entry = lp.materialize(system, 3.0).kernel.data[0]
print(entry.real.hex(), lp.rn_derivative(S).values[0].real.hex())
"""


def test_block_sums_do_not_depend_on_the_hash_seed():
    # a block is a frozenset of str atoms, whose iteration order follows
    # PYTHONHASHSEED; materialize and rn_derivative add its mass in
    # codomain order, so every hash seed gives the same bits
    src = str(Path(lp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _BLOCK_OF_12],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(6)
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 160.0])
def test_detect_inverts_materialize_exactly(p):
    # quarter-turn phases survive entry / modulus exactly, so the detected
    # system equals the materialized one; h is the block-constant ratio
    rng = np.random.default_rng(25)

    def phases(F):
        return {y: (1 + 0j, 1j, -1 + 0j, -1j)[k] for y, k in zip(F, rng.integers(0, 4, len(F)))}

    blocks_of_8 = 0
    for sys in seeded_systems(rng, phases):
        A = lp.materialize(sys, p)
        res = lp.detect(A)
        assert res.accepted and res.system == sys and res.spatial == sys.spatial
        assert res.h == loop_detect(A)[1]
        h = rn_derivative(sys.transform)
        assert all(abs(res.h[y] - h(y).real) <= 4e-16 * h(y).real for y in sys.F)
        blocks_of_8 += sum(len(b) >= 8 for b in sys.transform.blocks.values())
    assert blocks_of_8 >= 12


def test_detect_rejections_keep_reason_and_witness():
    # one matrix per rejection kind, checked against the loop reference;
    # at tol = 0.1 an entry of modulus 1.81 where (8 / 1)^(1/3) = 2 is
    # expected passes block constancy (0.19 <= 0.1 * 2) but leaves a
    # reconstruction error above tol times the largest modulus (0.181)
    one, two = lp.FiniteMeasureSpace(["x0", "x1"], [8.0, 1.0]), lp.FiniteMeasureSpace(["y0", "y1"], [1.0, 1.0])
    phase = np.exp(0.7j)
    cases = [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), 1e-9, "overlapping column supports"),
        (np.array([[2.0 * phase, 0.0], [0.0, 0.5]]), 1e-9, "block-constancy failure"),
        (np.array([[1.81 * phase, 0.0], [0.0, 1.0]]), 0.1, "reconstruction mismatch"),
        (np.array([[1.81 * phase, 0.0], [0.0, 0.15]]), 0.1, "reconstruction mismatch"),
    ]
    for entries, tol, reason in cases:
        for held in (entries, sparse.csr_array(entries)):
            A = lp.OperatorMatrix(one, two, 3.0, held)
            got, want = lp.detect(A, tol=tol), loop_detect(A, tol=tol)
            assert isinstance(got, Rejection) and got.reason == reason
            assert (got.reason, got.witness) == (want.reason, want.witness)


def test_homotopy_rigidity_witness():
    # two bijective spatial isometries with distinct transformations are
    # at distance >= 2^(1/p), certified by a normalized indicator
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        dom = lp.FiniteMeasureSpace([f"x{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        cod = lp.FiniteMeasureSpace([f"y{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        perms = []
        for _ in range(2):
            perm = rng.permutation(n)
            S = lp.SetTransformation(
                dom, cod, {dom.atoms[i]: {cod.atoms[perm[i]]} for i in range(n)}
            )
            sys = lp.SpatialSystem(
                dom, cod, dom.atoms, cod.atoms, S,
                {y: 1.0 for y in cod.atoms},
            )
            perms.append((perm, sys))
        (p0, sys0), (p1, sys1) = perms
        diff = [i for i in range(n) if p0[i] != p1[i]]
        if not diff:
            continue
        hits += 1
        p = float(rng.choice([1.0, 1.5, 3.0]))
        x = diff[0]
        xi = np.zeros(n)
        xi[x] = dom.weights[x] ** (-1.0 / p)
        v0 = lp.materialize(sys0, p).apply(xi)
        v1 = lp.materialize(sys1, p).apply(xi)
        gap = lp.vector_norm(cod, v0 - v1, p)
        assert gap == pytest.approx(2.0 ** (1.0 / p), abs=1e-10)
        assert gap >= 1.0
    assert hits > 10


def test_detect_round_trip_exhaustive_small():
    # every combinatorial shape of a spatial system on <= 4 atoms
    import itertools

    dom = lp.FiniteMeasureSpace(["x0", "x1", "x2", "x3"], [1.0, 0.5, 2.0, 1.25])
    cod = lp.FiniteMeasureSpace(["y0", "y1", "y2", "y3"], [0.75, 1.0, 1.5, 2.0])
    phases = [1.0, -1.0, 1j]
    count = 0
    for k in range(1, 5):
        for E in itertools.combinations(dom.atoms, k):
            for F in itertools.combinations(cod.atoms, k):
                for perm in itertools.permutations(range(k)):
                    blocks = {E[i]: {F[perm[i]]} for i in range(k)}
                    S = lp.SetTransformation(
                        dom.subspace(E), cod.subspace(F), blocks
                    )
                    g = {F[i]: phases[i % 3] for i in range(k)}
                    sys = lp.SpatialSystem(dom, cod, E, F, S, g)
                    p = (1.0, 1.5, 3.0)[count % 3]
                    res = lp.detect(lp.materialize(sys, p))
                    assert res.accepted and res.spatial
                    assert res.system == sys
                    count += 1
    # sum over k of C(4,k)^2 * k! = 16 + 72 + 96 + 24
    assert count == 208


def test_dual_identity_is_identity():
    space = lp.FiniteMeasureSpace(["a", "b"], [1.0, 3.0])
    dsys, q = lp.dual(lp.identity_system(space), 3.0)
    assert np.abs(lp.materialize(dsys, q).entries - np.eye(2)).max() == 0


def test_json_round_trips():
    rng = np.random.default_rng(11)
    sys = random_semispatial_system(rng)
    data = system_to_json(sys)
    back = system_from_json(data)
    assert system_to_json(back) == data
    A = lp.materialize(sys, 1.5)
    mdata = matrix_to_json(A, p_text="1.5")
    B = matrix_from_json(mdata)
    assert matrix_to_json(B, p_text="1.5") == mdata
    assert np.abs(A.entries - B.entries).max() == 0.0
    space = lp.FiniteMeasureSpace(["a", "b"], [1.5, 2.5])
    assert space_from_json(space_to_json(space)) == space


def test_weight_absorption_matches_dense_formula():
    # the dense D_nu^(1/p) A D_mu^(-1/p) that weighted_to_unweighted used
    # to compute; the CSR kernel must give the same bits, zeros included
    rng = np.random.default_rng(17)
    for trial in range(300):
        n, m = (int(k) for k in rng.integers(1, 9, size=2))
        p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
        source = lp.FiniteMeasureSpace(range(n), rng.uniform(0.1, 5.0, size=n))
        target = lp.FiniteMeasureSpace(range(m), rng.uniform(0.1, 5.0, size=m))
        K = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        K[rng.random((m, n)) < 0.5] = 0.0
        A = lp.OperatorMatrix(source, target, p, K)
        left = target.weights ** (1.0 / p)
        right = source.weights ** (-1.0 / p)
        dense = (left[:, None] * A.entries) * right[None, :]
        B = unweighted_kernel(A)
        assert sparse.issparse(B) and not np.shares_memory(B.data, A.kernel.data)
        assert B.toarray().tobytes() == dense.tobytes()
        assert weighted_to_unweighted(A).tobytes() == dense.tobytes()
