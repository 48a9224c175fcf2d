"""The three workloads of the lpcuntz benchmark.

Each workload generates its inputs from the run's seed, builds its
lpcuntz objects in ``setup`` (the part counted in ``setup_s``), produces
every result in ``solve`` (``solve_s``), and checks the results in
``check``, outside the timed phases.  ``size`` is "full" or "smoke".

Why these three: ``norm-ladder`` is the norm pipeline the paper is about
(few large dense operators, Boyd iterations); ``degree0-crosscheck`` is
shaped like acceptance criterion C03 (many tiny kernels, dominated by
the sampling oracle); ``exact-audit`` covers the exact algebra, the
spatial detector and the spatiality report, which the other two barely
touch.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

P = 3.0  # exponent of the norm ladders and of the spatiality reports


def derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Checks:
    """Tally of checked results: a result fails when any of its checks
    fails or when producing it raised."""

    def __init__(self, digest_only=False):
        self.digest_only = digest_only
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.ran = set()
        self._digest = hashlib.sha256()

    def result(self, label: str, value, checks):
        """``checks`` is a callable returning (name, ok, detail) triples,
        called only when ``value`` is not an exception.  A repeat whose
        inputs were already checked only feeds the digest."""
        if self.digest_only:
            return
        self.attempted += 1
        if isinstance(value, Exception):
            self.failed += 1
            self.messages.append(f"{label}: raised {value!r}")
            self._digest.update(f"{label}|error\n".encode())
            return
        bad = []
        for name, ok, detail in checks():
            self.ran.add(name)
            if not ok:
                bad.append(f"{name} ({detail})")
        if bad:
            self.failed += 1
            self.messages.append(f"{label}: " + "; ".join(bad))

    def digest_line(self, text: str):
        self._digest.update((text + "\n").encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def attempt(fn):
    try:
        return fn()
    except Exception as exc:  # counted as a failed result, never hidden
        return exc


def _weighted_ratio(A, x, p) -> float:
    out = np.sum(A.target.weights * np.abs(A.entries @ x) ** p) ** (1.0 / p)
    return float(out / np.sum(A.source.weights * np.abs(x) ** p) ** (1.0 / p))


def _riesz_thorin(A, p) -> float:
    """||B||_1^(1/p) ||B||_inf^(1-1/p) for the kernel with the weights absorbed."""
    B = np.abs(A.entries) * (A.target.weights ** (1.0 / p))[:, None]
    B *= (A.source.weights ** (-1.0 / p))[None, :]
    return float(B.sum(axis=0).max() ** (1.0 / p) * B.sum(axis=1).max() ** (1.0 - 1.0 / p))


class NormLadder:
    """Per-level norm lower bounds of two fixed mixed-degree elements on
    a deep untwisted ladder (dense assembly and memory dominate) and a
    Fourier-twisted ladder (complex multistart Boyd iterations dominate).
    The seed is the multistart seed, as the CLI's ``--seed``; the values
    do not depend on it, so one reference file serves every seed."""

    name = "norm-ladder"
    CHECKS = ("witness", "riesz_thorin", "reference")
    ELEMENTS = ("s1 + t1", "s1*t2 + s2*t1 + t1*t2")
    # (label, top level at full size, top level at smoke size)
    LADDERS = (("interval", 10, 4), ("fourier:sequence", 7, 3))

    def setup(self, lp, seed, size):
        kind = lp.leavitt(2)
        reps = {
            "interval": lp.interval_rep(2, P),
            "fourier:sequence": lp.fourier_twist(lp.sequence_rep(2, P)),
        }
        return {
            "elements": [(text, lp.parse_element(text, kind)) for text in self.ELEMENTS],
            "ladders": [
                (label, reps[label], full if size == "full" else smoke)
                for label, full, smoke in self.LADDERS
            ],
            "seed": seed,
        }

    def solve(self, lp, state, mark):
        out = []
        for rep_label, rep, n_max in state["ladders"]:
            for text, a in state["elements"]:
                label = f"{rep_label} | {text}"
                mark(label)
                seq = attempt(
                    lambda: lp.norm_sequence(rep, a, n_max, restarts=20, seed=state["seed"])
                )
                out.append((label, rep, a, seq))
        return out

    def check(self, lp, state, results, reference, checks):
        ref = reference["norm-ladder"]
        for label, rep, a, seq in results:
            if isinstance(seq, Exception):
                checks.result(label, seq, None)
                continue
            for level, res in zip(seq.levels, seq.results):
                value = res.estimate

                def level_checks():
                    A = lp.evaluate(rep, a, level)
                    ratio = _weighted_ratio(A, res.witness, P)
                    yield ("witness", abs(ratio - value) <= 1e-9 * value, f"{ratio!r} vs {value!r}")
                    bound = _riesz_thorin(A, P)
                    yield ("riesz_thorin", value <= bound * (1 + 1e-12), f"{value!r} > {bound!r}")
                    expected = ref[label][str(level)]
                    yield ("reference", value >= expected - 1e-6, f"{value!r} < {expected!r}")

                checks.result(f"{label} level {level}", value, level_checks)
                checks.digest_line(f"{label}|{level}|{value:.12g}|{res.iterations}")

    @staticmethod
    def reference_values(results) -> dict:
        return {
            label: {str(lv): r.estimate for lv, r in zip(seq.levels, seq.results)}
            for label, _, _, seq in results
        }


def _dyadic(x: float, scale: int = 4096) -> Fraction:
    return Fraction(int(round(x * scale)), scale)


def c03_bank(count: int) -> list:
    """The first ``count`` elements of acceptance criterion C03 (generator
    seed 2024): 4 x 4 tables of dyadic complex coefficients indexed by
    the words of length 2."""
    rng = np.random.default_rng(2024)
    bank = []
    for _ in range(count):
        table = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                table[i][j] = (_dyadic(rng.standard_normal()), _dyadic(rng.standard_normal()))
        bank.append(table)
    return bank


def _element_text(table, words) -> str:
    terms = []
    for i, alpha in enumerate(words):
        for j, beta in enumerate(words):
            re, im = table[i][j]
            sign = "+" if im >= 0 else "-"
            s = "".join(map(str, alpha))
            t = "".join(map(str, beta))
            terms.append(f"({re}{sign}{abs(im)}i)*s{s}*t{t}")
    return " + ".join(terms)


_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # 1, i, -1, -i as (re, im)


def _spatial_twist(table, rng):
    """Coefficients of u a v for spatial unitaries u = sum phi_a s_pi(a) t_a
    and v = sum psi_b s_b t_sigma(b): a signed, phased permutation of
    rows and columns, which leaves every p-norm unchanged."""
    n = len(table)
    pi, sigma = rng.permutation(n), rng.permutation(n)
    phi, psi = rng.integers(0, 4, size=n), rng.integers(0, 4, size=n)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            re, im = table[a][b]
            for k in (phi[a], psi[b]):
                c, s = _PHASES[k]
                re, im = re * c - im * s, re * s + im * c
            out[pi[a]][sigma[b]] = (re, im)
    return out


class Degree0Crosscheck:
    """Degree-0 elements of L_2 with 16 matrix-unit coefficients, as in
    C03.  The oracle runs on the fixed C03 coefficient kernels, so its
    chaotic simplex work is the same for every seed; the seed applies
    random spatial unitaries on both sides of each element and picks
    the Boyd multistart seeds, and the coefficient-kernel, interval and
    sequence norms of the twisted element must match the oracle (the
    degree-0 uniqueness theorem)."""

    name = "degree0-crosscheck"
    CHECKS = ("uniqueness",)
    P_VALUES = (1.5, 3.0)
    # (elements, oracle samples, oracle starts, oracle rounds)
    SIZES = {"full": (2, 2048, 6, 2), "smoke": (1, 512, 3, 2)}

    def setup(self, lp, seed, size):
        count, *oracle = self.SIZES[size]
        kind = lp.leavitt(2)
        words = lp.words(2, 2)
        space = lp.FiniteMeasureSpace(range(4), [1.0] * 4)
        items = []
        for i, table in enumerate(c03_bank(count)):
            twisted = _spatial_twist(table, np.random.default_rng([seed, i]))
            items.append(
                {
                    "index": i,
                    "element": lp.parse_element(_element_text(twisted, words), kind),
                    "kernel": np.array([[complex(re, im) for re, im in row] for row in twisted]),
                    "bank_kernel": np.array([[complex(re, im) for re, im in row] for row in table]),
                    "boyd_seed": derived_seed(seed, i),
                }
            )
        reps = {p: (lp.interval_rep(2, p), lp.sequence_rep(2, p)) for p in self.P_VALUES}
        return {"items": items, "reps": reps, "space": space, "oracle": oracle}

    def solve(self, lp, state, mark):
        samples, starts, rounds = state["oracle"]
        space = state["space"]
        out = []
        for item in state["items"]:
            for p in self.P_VALUES:
                label = f"element {item['index']} p={p:g}"
                mark(label)
                intv, seq = state["reps"][p]

                def norms():
                    a = lp.normal_form(item["element"])
                    boyd = lambda A: lp.power_estimate(A, restarts=16, seed=item["boyd_seed"]).estimate
                    kernel = lp.OperatorMatrix(space, space, p, item["kernel"])
                    bank = lp.OperatorMatrix(space, space, p, item["bank_kernel"])
                    return {
                        "kernel": boyd(kernel),
                        "interval": boyd(lp.evaluate(intv, a, 2)),
                        "sequence": boyd(lp.evaluate(seq, a, 2)),
                        "oracle": lp.oracle_grid(
                            bank, samples=samples, seed=item["index"] + 1,
                            starts=starts, rounds=rounds,
                        ).estimate,
                    }

                out.append((label, attempt(norms)))
        return out

    def check(self, lp, state, results, reference, checks):
        for label, norms in results:
            def uniqueness():
                spread = max(norms.values()) - min(norms.values())
                yield ("uniqueness", spread <= 1e-6, f"spread {spread:.3e} over {norms}")

            checks.result(label, norms, uniqueness)
            if not isinstance(norms, Exception):
                values = "|".join(f"{norms[k]:.12g}" for k in sorted(norms))
                checks.digest_line(f"{label}|{values}")


def _random_system(lp, rng, n_dom, n_cod, k, m):
    """Seeded system with |E| = k and |F| = m atoms; spatial when m == k,
    else semispatial with k nonempty blocks."""
    dom = lp.FiniteMeasureSpace([f"x{i}" for i in range(n_dom)], rng.uniform(0.5, 2.0, n_dom))
    cod = lp.FiniteMeasureSpace([f"y{i}" for i in range(n_cod)], rng.uniform(0.5, 2.0, n_cod))
    E = [dom.atoms[i] for i in sorted(rng.choice(n_dom, size=k, replace=False))]
    F = [cod.atoms[i] for i in rng.choice(n_cod, size=m, replace=False)]
    cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))
    blocks = {x: frozenset(piece) for x, piece in zip(E, np.split(np.array(F, dtype=object), cuts))}
    transform = lp.SetTransformation(dom.subspace(E), cod.subspace(F), blocks)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=m)
    g = {y: complex(np.cos(t), np.sin(t)) for y, t in zip(F, angles)}
    return lp.SpatialSystem(dom, cod, E, F, transform, g)


def _qc_table(lp, re, im):
    return [[lp.QC(int(a), int(b)) for a, b in zip(ra, ia)] for ra, ia in zip(re, im)]


def _gaussian_integer_table(rng, n):
    re, im = rng.integers(-3, 4, size=(2, n, n))
    re[(re == 0) & (im == 0)] = 1  # every matrix unit is present
    return re, im


class ExactAudit:
    """Exact products of matrix-unit embeddings and their evaluation
    (many terms, small matrices), materialize -> detect round trips on
    seeded systems of up to 256 atoms, and spatiality reports whose
    classes are known.  No oracle and no large Boyd runs."""

    name = "exact-audit"
    CHECKS = ("exact_product", "evaluated_product", "round_trip", "report_classes")
    # (d, m) of the product tables
    PRODUCTS = {"full": ((2, 5), (3, 3)), "smoke": ((2, 2), (3, 1))}
    # (n_dom, n_cod, |E|, |F|) of the round-trip systems, p cycling over P_TRIP
    SYSTEMS = {
        "full": ((256, 256, 192, 192),) * 6 + ((64, 256, 48, 192),) * 6,
        "smoke": ((8, 8, 6, 6), (4, 8, 3, 6)),
    }
    P_TRIP = (1.0, 1.5, 3.0)
    REPORTS = (
        ("interval", 5), ("sequence(d=3)", 4), ("fourier:interval", 5),
        ("sum:interval+fourier:interval", 5), ("free:sequence:4", 5),
    )

    @staticmethod
    def _report_rep(lp, label):
        if label == "interval":
            return lp.interval_rep(2, P)
        if label == "sequence(d=3)":
            return lp.sequence_rep(3, P)
        if label == "fourier:interval":
            return lp.fourier_twist(lp.interval_rep(2, P))
        if label == "sum:interval+fourier:interval":
            return lp.direct_sum_p([lp.interval_rep(2, P), lp.fourier_twist(lp.interval_rep(2, P))])
        return lp.free_rep(lp.sequence_rep(2, P), 4)

    def setup(self, lp, seed, size):
        rng = np.random.default_rng([seed, 3])
        products = []
        for d, m in self.PRODUCTS[size]:
            n = d**m
            A, B = _gaussian_integer_table(rng, n), _gaussian_integer_table(rng, n)
            products.append(
                {
                    "d": d, "m": m, "kind": lp.leavitt(d), "rep": lp.interval_rep(d, P),
                    "ints": (A, B), "tables": (_qc_table(lp, *A), _qc_table(lp, *B)),
                }
            )
        systems = [
            (f"system {i} p={self.P_TRIP[i % 3]:g}", _random_system(lp, rng, *shape), self.P_TRIP[i % 3])
            for i, shape in enumerate(self.SYSTEMS[size])
        ]
        reports = [
            (label, self._report_rep(lp, label), depth if size == "full" else 2)
            for label, depth in self.REPORTS
        ]
        return {
            "products": products, "systems": systems, "reports": reports,
            "report_seed": derived_seed(seed, 4),
        }

    def solve(self, lp, state, mark):
        out = []
        for prod in state["products"]:
            label = f"product d={prod['d']} m={prod['m']}"
            mark(label)

            def product():
                ta, tb = prod["tables"]
                ea = lp.matrix_unit_embed(prod["kind"], prod["m"], ta)
                eb = lp.matrix_unit_embed(prod["kind"], prod["m"], tb)
                ab = lp.mul(ea, eb)
                return ea, eb, ab, lp.evaluate(prod["rep"], ab, prod["m"])

            out.append(("product", label, prod, attempt(product)))
        for label, system, p in state["systems"]:
            mark(label)
            out.append(("round_trip", label, system, attempt(lambda: lp.detect(lp.materialize(system, p)))))
        for label, rep, depth in state["reports"]:
            mark(f"report {label}")
            report = attempt(
                lambda: lp.spatiality_report(rep, depth=depth, seed=state["report_seed"])
            )
            out.append(("report", label, None, report))
        return out

    def check(self, lp, state, results, reference, checks):
        expected_classes = reference["exact-audit"]["report_classes"]
        for kind, label, data, value in results:
            if kind == "product":
                checks.result(label, value, lambda: self._check_product(lp, data, value))
                if not isinstance(value, Exception):
                    terms = sorted(
                        f"{al}{be}{c.re}{c.im}" for (al, be), c in value[2].terms.items()
                    )
                    checks.digest_line(f"{label}|" + hashlib.sha256("".join(terms).encode()).hexdigest())
            elif kind == "round_trip":
                checks.result(label, value, lambda: self._check_round_trip(data, value))
                if not isinstance(value, Exception):
                    checks.digest_line(f"{label}|{value.accepted}")
            else:
                checks.result(label, value, lambda: self._check_report(value, expected_classes[label]))
                if not isinstance(value, Exception):
                    classes = ",".join(f"{k}={c.value}" for k, c in value.conditions.items())
                    checks.digest_line(f"{label}|{classes}")

    @staticmethod
    def _check_product(lp, prod, value):
        ea, eb, ab, evaluated = value
        (ar, ai), (br, bi) = prod["ints"]
        cr, ci = ar @ br - ai @ bi, ar @ bi + ai @ br  # numpy's exact integer product
        expected = lp.matrix_unit_embed(prod["kind"], prod["m"], _qc_table(lp, cr, ci))
        yield ("exact_product", ab == expected, "product differs from matrix_unit_embed(A @ B)")
        m, rep = prod["m"], prod["rep"]
        reference = lp.evaluate(rep, ea, m).entries @ lp.evaluate(rep, eb, m).entries
        err = float(np.abs(evaluated.entries - reference).max())
        scale = max(1.0, float(np.abs(reference).max()))
        yield ("evaluated_product", err <= 1e-9 * scale, f"max error {err:.3e}")

    @staticmethod
    def _check_round_trip(system, res):
        if not (res.accepted and res.spatial == system.spatial):
            yield ("round_trip", False, f"detector returned {res!r}")
            return
        got = res.system
        same = (
            set(got.E) == set(system.E)
            and set(got.F) == set(system.F)
            and all(got.block(x) == system.block(x) for x in system.E)
        )
        phase_err = max(abs(got.g[y] - system.g[y]) for y in system.F)
        yield ("round_trip", same and phase_err <= 1e-10, f"supports {same}, phase error {phase_err:.3e}")

    @staticmethod
    def _check_report(report, expected):
        got = {name: cond.value for name, cond in report.conditions.items()}
        ok = got == expected and not report.violations
        yield ("report_classes", ok, f"classes {got}, violations {report.violations}")


WORKLOADS = {w.name: w for w in (NormLadder(), Degree0Crosscheck(), ExactAudit())}
