"""Verification suites shared by the command-line surface and the test
suite: every check returns a named pass/fail record with a witness
payload, and a suite passes iff all its checks do."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .leavitt import (
    leavitt,
    monomial,
    mul,
    normal_form,
    prime,
    same_length_form,
    star,
    unit,
    words,
    zero,
)
from .measure import (
    AtomFunction,
    FiniteMeasureSpace,
    SetTransformation,
    compose,
    identity_transformation,
    pullback_measure,
    pushforward_function,
    pushforward_measure,
    rn_derivative,
)
from .pnorm import lp_norm, oracle_grid, power_estimate
from .reps import (
    check_relations,
    direct_sum_p,
    fourier_twist,
    fourier_twist_table,
    free_rep,
    interval_rep,
    sequence_rep,
    tensor_identity,
)
from .sampling import (
    random_composable_pair,
    random_semispatial_system,
    random_spatial_system,
)
from .spatial import (
    OperatorMatrix,
    Rejection,
    compose_systems,
    detect,
    dual,
    indicator_operator,
    materialize,
    pairing_adjoint,
    reverse,
    tensor_systems,
    vector_norm,
)


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


def _check(name, ok, **detail) -> Check:
    return Check(name, bool(ok), detail)


# -- relations -------------------------------------------------------------


def verify_relations(
    d_values=(2, 3),
    p_values=(1.0, 1.5, 2.0, 3.0, 4.0),
    max_level: int = 4,
    free_n: int = 8,
    tol: float = 1e-12,
):
    checks = []
    for d in d_values:
        for p in p_values:
            base = {
                "interval": interval_rep(d, p),
                "sequence": sequence_rep(d, p),
            }
            seq = base["sequence"]
            reps = dict(base)
            reps["fourier"] = fourier_twist(seq)
            reps["sum"] = direct_sum_p([base["interval"], reps["fourier"]])
            aux = FiniteMeasureSpace(["u", "v"], [1.0, 2.0])
            reps["tensor"] = tensor_identity(seq, aux)
            reps["free"] = free_rep(seq, free_n)
            for name, rep in reps.items():
                residual = check_relations(rep, max_level)
                checks.append(
                    _check(
                        f"relations[{name}, d={d}, p={p:g}]",
                        residual <= tol,
                        residual=residual,
                    )
                )
    return checks


# -- Lamperti round trip -----------------------------------------------------


def _systems_equivalent(a, b, tol=1e-10) -> bool:
    if set(a.E) != set(b.E) or set(a.F) != set(b.F):
        return False
    if any(a.block(x) != b.block(x) for x in a.E):
        return False
    return all(abs(a.g[y] - b.g[y]) < tol for y in a.F)


_LAMPERTI_P_VALUES = (1.0, 1.5, 3.0)


def verify_lamperti(atoms=8, cases=200, seed=0):
    rng = np.random.default_rng(seed)
    checks = []
    failures = 0
    witness = {}
    for i in range(cases):
        if i % 2 == 0:
            sys = random_spatial_system(rng, max_atoms=atoms)
        else:
            sys = random_semispatial_system(rng, max_atoms=atoms)
        p = float(rng.choice(_LAMPERTI_P_VALUES))
        A = materialize(sys, p)
        res = detect(A)
        ok = (
            res.accepted
            and _systems_equivalent(res.system, sys)
            and res.spatial == sys.spatial
            and all(
                abs(res.h[y] - rn_derivative(sys.transform)(y).real) < 1e-10
                for y in sys.F
            )
        )
        if not ok:
            failures += 1
            if not witness:
                witness = {"case": i, "p": p}
    checks.append(
        _check(
            f"lamperti-round-trip[{cases} cases, <= {atoms} atoms]",
            failures == 0,
            failures=failures,
            **witness,
        )
    )

    # the plane rotation by pi/4 is never of (semi)spatial form
    sq = FiniteMeasureSpace(["a", "b"], [1.0, 1.0])
    c = 2.0 ** -0.5
    for p in _LAMPERTI_P_VALUES:
        R = OperatorMatrix(sq, sq, p, np.array([[c, -c], [c, c]]))
        res = detect(R)
        checks.append(
            _check(
                f"rotation-rejected[p={p:g}]",
                isinstance(res, Rejection),
                reason=getattr(res, "reason", None),
            )
        )
    R3 = OperatorMatrix(sq, sq, 3.0, np.array([[c, -c], [c, c]]))
    est = oracle_grid(R3, samples=2048, seed=seed).estimate
    checks.append(
        _check("rotation-not-isometric[p=3]", est > 1.001, oracle_norm=est)
    )
    return checks


# -- the Fourier-twist table ---------------------------------------------------


def verify_skew_table():
    tol = 1e-10
    table = fourier_twist_table(2, 3.0, [1, 2])
    checks = [
        _check(
            "skew-table-lambda",
            abs(table["lambda_norm_p"] - 9.0) <= tol,
            value=table["lambda_norm_p"],
        ),
        _check(
            "skew-table-twisted",
            abs(table["twisted_norm_p"] - 14.0) <= tol,
            value=table["twisted_norm_p"],
        ),
    ]
    seq = sequence_rep(2, 3.0)
    tw = fourier_twist(seq)
    lam = [1.0, 2.0]
    mats = {
        "base": sum(complex(lam[j - 1]) * seq.s_matrix(j, 2).toarray() for j in (1, 2)),
        "twisted": sum(complex(lam[j - 1]) * tw.s_matrix(j, 2).toarray() for j in (1, 2)),
    }
    expected = {"base": 9.0 ** (1 / 3.0), "twisted": 14.0 ** (1 / 3.0)}
    for name, mat in mats.items():
        A = OperatorMatrix(seq.space(2), seq.space(3), 3.0, mat)
        est = power_estimate(A, seed=0).estimate
        checks.append(
            _check(
                f"skew-operator-norm[{name}]",
                abs(est - expected[name]) <= 1e-8,
                value=est,
                expected=expected[name],
            )
        )
    return checks


# -- symbolic suite -----------------------------------------------------------


def verify_symbolic(seed=0):
    from .sampling import random_element

    rng = np.random.default_rng(seed)
    checks = []

    # normal-form confluence under randomized rewriting orders
    kind = leavitt(2)
    ok = True
    for _ in range(40):
        a = random_element(rng, kind)
        ref = normal_form(a)
        for _ in range(3):
            shuffled = normal_form(a, _pop_order=lambda w: rng.shuffle(w))
            if shuffled.terms != ref.terms:
                ok = False
    checks.append(_check("normal-form-confluence", ok))

    # involutions
    ok = True
    for _ in range(40):
        a = random_element(rng, kind)
        b = random_element(rng, kind)
        ok = ok and star(star(a)) == a and prime(prime(a)) == a
        ok = ok and star(mul(a, b)) == mul(star(b), star(a))
        ok = ok and prime(mul(a, b)) == mul(prime(b), prime(a))
    checks.append(_check("involutions", ok))

    # sum over words of each length collapses to the unit
    ok = True
    for d in (2, 3):
        kd = leavitt(d)
        for m in range(1, 5):
            total = zero(kd)
            for w in words(d, m):
                total = total + monomial(kd, w, w)
            ok = ok and normal_form(total) == unit(kd)
    checks.append(_check("word-sum-collapses[m<=4]", ok))

    # t_beta s_alpha = delta for all words of equal length <= 4
    ok = True
    for d in (2, 3):
        kd = leavitt(d)
        for n in range(1, 5):
            ws = words(d, n)
            for alpha in ws:
                for beta in ws:
                    prod = mul(monomial(kd, (), beta), monomial(kd, alpha, ()))
                    expected = unit(kd) if alpha == beta else zero(kd)
                    ok = ok and prod == expected
    checks.append(_check("word-pairing[len<=4]", ok))

    # same-length round trip
    ok = True
    for _ in range(20):
        elems = [random_element(rng, kind) for _ in range(int(rng.integers(1, 4)))]
        form = same_length_form(elems)
        for k, e in enumerate(elems):
            ok = ok and form.rebuild(kind, k) == e
            ok = ok and all(len(b) == form.n for (_, b) in form.coefficients[k])
    checks.append(_check("same-length-round-trip", ok))

    return checks


# -- spatial norm identities ---------------------------------------------------


def verify_spatial_identities(seed=0):
    """||s_lambda xi|| = ||lambda||_p ||xi|| and ||t_gamma|| = ||gamma||_q at
    level 3 of the interval and sequence models, d = 2, p in (1.5, 3),
    from one rng drawn in that order."""
    rng = np.random.default_rng(seed)
    d = 2
    level = 3
    checks = []
    for p in (1.5, 3.0):
        q = p / (p - 1.0)
        for name, ctor in (("interval", interval_rep), ("sequence", sequence_rep)):
            rep = ctor(d, p)
            s_ops = {j: rep.generator_operator("s", j, level) for j in rep.generators}
            src, tgt = s_ops[1].source, s_ops[1].target
            worst = 0.0
            for _ in range(200):
                lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                xi = rng.standard_normal(len(src)) + 1j * rng.standard_normal(len(src))
                out = sum(complex(lam[j - 1]) * s_ops[j].apply(xi) for j in rep.generators)
                lhs = vector_norm(tgt, out, p)
                rhs = lp_norm(lam, p) * vector_norm(src, xi, p)
                worst = max(worst, abs(lhs - rhs))
            checks.append(
                _check(f"s-lambda-isometry[{name}, p={p:g}]", worst < 1e-10, worst=worst)
            )

            t_ops = {j: rep.generator_operator("t", j, level) for j in rep.generators}
            worst = 0.0
            for _ in range(50):
                gam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                entries = sum(complex(gam[j - 1]) * t_ops[j].entries for j in rep.generators)
                A = OperatorMatrix(t_ops[1].source, t_ops[1].target, p, entries)
                est = power_estimate(A, restarts=12, seed=seed).estimate
                worst = max(worst, abs(est - lp_norm(gam, q)))
            checks.append(
                _check(f"t-gamma-norm[{name}, p={p:g}]", worst < 1e-6, worst=worst)
            )
    return checks


# -- spatial calculus ----------------------------------------------------------


def verify_calculus(cases=100, seed=0, tol=1e-12):
    rng = np.random.default_rng(seed)
    p_pool = (1.0, 1.5, 2.0, 3.0)
    worst = {"compose": 0.0, "reverse": 0.0, "tensor": 0.0, "dual": 0.0}
    for i in range(cases):
        p = float(p_pool[i % len(p_pool)])

        v, s = random_composable_pair(rng)
        prod = materialize(compose_systems(v, s), p)
        oracle = materialize(v, p).entries @ materialize(s, p).entries
        worst["compose"] = max(worst["compose"], float(np.abs(prod.entries - oracle).max(initial=0)))

        sys = random_spatial_system(rng)
        A = materialize(sys, p)
        T = materialize(reverse(sys), p)
        ts = T.entries @ A.entries
        st = A.entries @ T.entries
        me = indicator_operator(sys.domain, sys.E, p).entries
        mf = indicator_operator(sys.codomain, sys.F, p).entries
        worst["reverse"] = max(
            worst["reverse"],
            float(np.abs(ts - me).max(initial=0)),
            float(np.abs(st - mf).max(initial=0)),
        )

        s2 = random_spatial_system(rng, max_atoms=4)
        v2 = random_spatial_system(rng, max_atoms=4)
        kron = np.kron(materialize(s2, p).entries, materialize(v2, p).entries)
        tens = materialize(tensor_systems(s2, v2), p).entries
        worst["tensor"] = max(worst["tensor"], float(np.abs(tens - kron).max(initial=0)))

        if p > 1:
            sys3 = random_spatial_system(rng)
            A3 = materialize(sys3, p)
            dsys, q = dual(sys3, p)
            D = materialize(dsys, q)
            adj = pairing_adjoint(A3)
            worst["dual"] = max(worst["dual"], float(np.abs(D.entries - adj.entries).max(initial=0)))

    return [
        _check(f"calculus-{name}[{cases} cases]", value <= tol, worst=value)
        for name, value in worst.items()
    ]


# -- measure laws ---------------------------------------------------------------


def verify_measure(seed=0):
    rng = np.random.default_rng(seed)
    checks = []

    # sigma-homomorphism laws, exhaustive on small spaces
    ok = True
    for trial in range(5):
        sys = random_semispatial_system(rng, max_atoms=5)
        S = sys.transform
        atoms = S.source.atoms
        for ebits in itertools.product([0, 1], repeat=len(atoms)):
            for fbits in itertools.product([0, 1], repeat=len(atoms)):
                E = {a for a, b in zip(atoms, ebits) if b}
                F = {a for a, b in zip(atoms, fbits) if b}
                ok = ok and S.image_of_set(E | F) == S.image_of_set(E) | S.image_of_set(F)
                ok = ok and S.image_of_set(E & F) == S.image_of_set(E) & S.image_of_set(F)
                if not (E & F):
                    ok = ok and not (S.image_of_set(E) & S.image_of_set(F))
    checks.append(_check("sigma-homomorphism-laws", ok))

    # change of variables: sum xi d(S^* lambda) = sum S_* xi dlambda
    ok = True
    for _ in range(30):
        sys = random_semispatial_system(rng, max_atoms=6)
        S = sys.transform
        xi = AtomFunction(S.source, rng.standard_normal(len(S.source)) + 1j * rng.standard_normal(len(S.source)))
        lam = {y: float(rng.uniform(0.2, 2.0)) for y in S.target.atoms}
        lhs = sum(
            xi(a) * pullback_measure(S, lam)[a] for a in S.source.atoms
        )
        push = pushforward_function(S, xi)
        rhs = sum(push(y) * lam[y] for y in S.target.atoms)
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    checks.append(_check("change-of-variables", ok))

    # round trip S^*(S_* mu) = mu, block-level
    ok = True
    for _ in range(30):
        sys = random_semispatial_system(rng, max_atoms=6)
        S = sys.transform
        mu = {a: S.source.weight(a) for a in S.source.atoms}
        block_mass = pushforward_measure(S, mu)
        lam = {}
        for block, mass in block_mass.items():
            nu_block = sum(S.target.weight(y) for y in block)
            for y in block:
                lam[y] = mass * S.target.weight(y) / nu_block
        back = pullback_measure(S, lam)
        ok = ok and all(abs(back[a] - mu[a]) <= 1e-10 for a in S.source.atoms)
    checks.append(_check("pushforward-pullback-round-trip", ok))

    # chain rule for derivatives along a bijective transformation
    ok = True
    for _ in range(30):
        n = int(rng.integers(1, 6))
        src = FiniteMeasureSpace([f"x{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        tgt = FiniteMeasureSpace([f"y{i}" for i in range(n)], rng.uniform(0.5, 2, n))
        perm = rng.permutation(n)
        S = SetTransformation(
            src, tgt, {src.atoms[i]: frozenset([tgt.atoms[perm[i]]]) for i in range(n)}
        )
        sigma = {a: float(rng.uniform(0.2, 2.0)) for a in src.atoms}
        lam = {a: float(rng.uniform(0.2, 2.0)) for a in src.atoms}
        lhs_num = rn_derivative(S, sigma)
        lhs_den = rn_derivative(S, lam)
        ratio = {a: sigma[a] / lam[a] for a in src.atoms}
        push_ratio = pushforward_function(S, AtomFunction(src, ratio))
        for y in tgt.atoms:
            lhs = lhs_num(y) / lhs_den(y)
            ok = ok and abs(lhs - push_ratio(y)) <= 1e-10
    checks.append(_check("rn-chain-rule", ok))

    # identity and composition functoriality
    ok = True
    for _ in range(20):
        sys = random_semispatial_system(rng, max_atoms=5)
        S = sys.transform
        ident = identity_transformation(S.target)
        comp = compose(ident, S)
        ok = ok and comp.blocks == S.blocks
        xi = AtomFunction(S.source, rng.standard_normal(len(S.source)))
        lhs = pushforward_function(comp, xi)
        rhs = pushforward_function(ident, pushforward_function(S, xi))
        ok = ok and bool(np.allclose(lhs.values, rhs.values, atol=1e-12))
    checks.append(_check("composition-functoriality", ok))

    return checks


# each suite: the flags among -d, --level, --atoms and --cases that it
# reads, and its runner; "all" runs every suite and reads every flag
SUITES = {
    "relations": (("d", "level", "atoms"), lambda args: verify_relations(
        d_values=(2, 3) if args.d is None else (args.d,),
        max_level=4 if args.level is None else args.level,
        free_n=8 if args.atoms is None else args.atoms,
    )),
    "lamperti": (("atoms", "cases"), lambda args: verify_lamperti(
        atoms=8 if args.atoms is None else args.atoms,
        cases=200 if args.cases is None else args.cases,
        seed=args.seed,
    )),
    "skew-table": ((), lambda args: verify_skew_table()),
    "symbolic": ((), lambda args: verify_symbolic(seed=args.seed)),
    "spatial-identities": ((), lambda args: verify_spatial_identities(seed=args.seed)),
    "calculus": (("cases",), lambda args: verify_calculus(
        cases=100 if args.cases is None else args.cases, seed=args.seed
    )),
    "measure": ((), lambda args: verify_measure(seed=args.seed)),
}


def run_suite(name: str, args):
    """Run the named suite (or "all"); a flag that the suite does not
    read is a usage error, not a silent no-op."""
    for flag in ("atoms", "cases", "level"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    if name == "all":
        suites = list(SUITES.values())
    elif name in SUITES:
        suites = [SUITES[name]]
        for flag in ("d", "level", "atoms", "cases"):
            if getattr(args, flag) is not None and flag not in SUITES[name][0]:
                raise ValueError(f"suite {name!r} does not read --{flag}")
    else:
        raise KeyError(name)
    return [check for _, run in suites for check in run(args)]
