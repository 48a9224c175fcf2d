"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing the stated tolerance and runtime budget."""

import time
from fractions import Fraction

import numpy as np

import lpcuntz as lp
from lpcuntz.leavitt import QC
from lpcuntz.verify import (
    verify_calculus,
    verify_lamperti,
    verify_relations,
    verify_skew_table,
    verify_spatial_identities,
    verify_symbolic,
)

K2 = lp.leavitt(2)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.seconds}s budget"
            )


def dyadic(z, scale=4096):
    return QC(
        Fraction(int(round(z.real * scale)), scale),
        Fraction(int(round(z.imag * scale)), scale),
    )


def test_c01_fourier_twist_table():
    with Budget(1.0):
        checks = verify_skew_table()  # the 9/14 table and both operator norms
        bad = [c for c in checks if not c.ok]
        assert len(checks) == 4
        assert not bad, bad
    print("CRITERION 1 (Fourier-twist table 9/14): PASS")


def test_c02_relation_suite():
    with Budget(120.0):
        checks = verify_relations(
            d_values=(2, 3),
            p_values=(1.0, 1.5, 2.0, 3.0, 4.0),
            max_level=4,
            free_n=8,
            tol=1e-12,
        )
        bad = [c for c in checks if not c.ok]
        assert not bad, bad
    print(f"CRITERION 2 (relation suite, {len(checks)} constructor grids): PASS")


def test_c03_degree_zero_norm_uniqueness():
    with Budget(120.0):
        rng = np.random.default_rng(2024)
        ws = lp.words(2, 2)
        elements = []
        for _ in range(50):
            terms = {}
            for alpha in ws:
                for beta in ws:
                    terms[(alpha, beta)] = dyadic(
                        rng.standard_normal() + 1j * rng.standard_normal()
                    )
            elements.append(lp.AlgebraElement(K2, terms))
        coeff_space = lp.FiniteMeasureSpace(range(4), [1.0] * 4)
        worst = 0.0
        for p in (1.0, 1.5, 3.0):
            intv = lp.interval_rep(2, p)
            seq = lp.sequence_rep(2, p)
            for i, a in enumerate(elements):
                M = np.array(
                    [[a.coefficient(al, be).to_complex() for be in ws] for al in ws]
                )
                Mop = lp.OperatorMatrix(coeff_space, coeff_space, p, M)
                n_ref = lp.power_estimate(Mop, restarts=16, seed=i).estimate
                n_oracle = lp.oracle_grid(
                    Mop, samples=2048, seed=i + 1, starts=6, rounds=2
                ).estimate
                n_int = lp.power_estimate(
                    lp.evaluate(intv, a, 2), restarts=16, seed=i
                ).estimate
                n_seq = lp.power_estimate(
                    lp.evaluate(seq, a, 2), restarts=16, seed=i
                ).estimate
                worst = max(
                    worst,
                    abs(n_int - n_ref),
                    abs(n_seq - n_ref),
                    abs(n_oracle - n_ref),
                )
        assert worst < 1e-6, worst
    print(f"CRITERION 3 (degree-0 norm uniqueness, worst dev {worst:.2e}): PASS")


def test_c04_spatial_identities():
    with Budget(60.0):
        # interval and sequence at p = 1.5 and 3: 200 s-draws, 50 t-draws each
        checks = verify_spatial_identities(seed=44)
        bad = [c for c in checks if not c.ok]
        assert len(checks) == 8
        assert not bad, bad
    print("CRITERION 4 (spatial norm identities): PASS")


def test_c05_lamperti_round_trip():
    with Budget(60.0):
        # 100 spatial and 100 semispatial systems, then the rotation
        checks = verify_lamperti(atoms=8, cases=200, seed=55)
        bad = [c for c in checks if not c.ok]
        assert not bad, bad
    est = {c.name: c for c in checks}["rotation-not-isometric[p=3]"].detail["oracle_norm"]
    print(f"CRITERION 5 (Lamperti round trip, rotation norm {est:.4f}): PASS")


def test_c06_calculus_laws():
    with Budget(60.0):
        checks = verify_calculus(cases=100, seed=66, tol=1e-12)
        bad = [c for c in checks if not c.ok]
        assert not bad, bad
    print("CRITERION 6 (compose/reverse/tensor/dual vs matrix oracles): PASS")


def test_c07_free_rep_monotonicity():
    with Budget(180.0):
        seq = lp.sequence_rep(2, 3.0)
        for text in ("s1 + t1", "s1*t2 + s2*t1 + t1*t2"):
            a = lp.parse_element(text, K2)
            base = lp.power_estimate(lp.evaluate(seq, a, 4), seed=0).estimate
            values = []
            for n in (2, 4, 8, 16):
                fr = lp.free_rep(seq, n)
                values.append(
                    lp.power_estimate(lp.evaluate(fr, a, 4), seed=0).estimate
                )
            assert all(
                values[i] <= values[i + 1] + 1e-8 for i in range(len(values) - 1)
            ), (text, values)
            assert values[-1] >= base - 0.05, (text, values[-1], base)
    print("CRITERION 7 (free-representation monotonicity surrogate): PASS")


def test_c08_spatiality_report_classifications():
    with Budget(60.0):
        intv = lp.interval_rep(2, 3.0)
        rep = lp.spatiality_report(intv, depth=2, seed=8, samples=50)
        assert rep["spatial"].value is True

        tw = lp.spatiality_report(lp.fourier_twist(intv), depth=2, seed=8, samples=50)
        assert tw["contractive_on_generators"].value is True
        assert tw["strongly_forward_isometric"].value is True
        assert tw["disjoint"].value is False

        ds = lp.direct_sum_p([intv, lp.fourier_twist(intv)])
        mixed = lp.spatiality_report(ds, depth=2, seed=8, samples=50)
        assert mixed["forward_isometric"].value is True
        assert mixed["strongly_forward_isometric"].value is False
        for report in (rep, tw, mixed):
            assert not report.violations
    print("CRITERION 8 (report classifications match the worked examples): PASS")


def test_c09_symbolic_suite():
    with Budget(30.0):
        checks = verify_symbolic(seed=99)
        bad = [c for c in checks if not c.ok]
        assert not bad, bad
    print("CRITERION 9 (symbolic suite, all exact): PASS")


def test_c10_embedding_pairing():
    with Budget(30.0):
        rng = np.random.default_rng(10)
        rep = lp.sequence_rep(2, 3.0)
        level = 6
        for _ in range(10):
            support = sorted(
                int(j)
                for j in rng.choice(
                    np.arange(1, 5), size=int(rng.integers(1, 4)), replace=False
                )
            )
            gam = {j: dyadic(rng.standard_normal() + 1j * rng.standard_normal()) for j in support}
            lam = {j: dyadic(rng.standard_normal() + 1j * rng.standard_normal()) for j in support}
            t_el = sum(
                (lp.monomial(K2, (), tuple([2] * j + [1])).scale(g) for j, g in gam.items()),
                lp.zero(K2),
            )
            s_el = sum(
                (lp.monomial(K2, tuple([2] * j + [1]), ()).scale(l) for j, l in lam.items()),
                lp.zero(K2),
            )
            k_t = -(min(support) + 1)
            k_s = max(support) + 1
            T = lp.evaluate(rep, t_el, level)  # V_level -> V_{level + k_t}
            S = lp.evaluate(rep, s_el, level - k_s)  # V_{level - k_s} -> V_level
            pair = T.entries @ S.entries
            coef = sum((gam[j] * lam[j]).to_complex() for j in support)
            incl = np.eye(len(S.source))
            for m in range(level - k_s, level + k_t):
                incl = rep.inclusion(m).toarray() @ incl
            assert np.abs(pair - coef * incl).max() < 1e-10
    print("CRITERION 10 (embedding pairing at level 6): PASS")
