"""Exact symbolic arithmetic in Leavitt and Cohn algebras.

The Leavitt algebra L_d is the universal complex algebra on generators
s_1..s_d, t_1..t_d with t_j s_j = 1, t_j s_k = 0 (j != k) and
sum_j s_j t_j = 1.  The Cohn algebra C_d drops the last relation, and
L_inf has countably many generators and no sum relation.  Every element
is a linear combination of monomials s_alpha t_beta indexed by pairs of
words, and for L_d a canonical basis is obtained by excluding monomials
where alpha and beta are both nonempty and both end in the letter d;
the reduction rule

    s_{alpha d} t_{beta d} = s_alpha t_beta - sum_{j<d} s_{alpha j} t_{beta j}

rewrites any element into that basis.  Coefficients are exact complex
rationals, so equality of elements is decidable and exact.

Products and normal forms run on a Gaussian-integer lattice: each
operand is scaled once by the lcm D of its coefficient denominators, so
every coefficient becomes a pair (re, im) of Python ints.  The product
of two monomials and the reduction rule only multiply, add and negate
such pairs, and the result is divided by D_a * D_b once at the end.
The product is a prefix join: t_beta s_gamma vanishes unless one of
beta, gamma is a prefix of the other.  Two joins compute it, term for
term and in the same key order, which fixes evaluate's floating-point
summation order:

* the dict join (_mul_term_dicts) indexes the terms of the right factor
  by gamma and by every proper prefix of gamma, and each term of the
  left factor looks up only the terms that survive, one Python step per
  contraction.  It is the exact reference, and it takes every product
  of fewer than SPARSE_JOIN_MIN_PAIRS left-right term pairs;
* the sparse join (_sparse_join) forms the same sums as one sparse
  complex matrix product, whose multiply-adds run in scipy's C code.
  It needs |a|_1 |b|_1 < 2**53 (|.|_1 sums |re| + |im| over the lattice
  terms), so that every partial sum is an integer that a double holds
  exactly; past that guard the dict join runs.

A product of two matrix-unit embeddings at d = 2, m = 5 (about 1,000
terms each, 64,000 contractions onto 1,400 keys) takes about 6 ms by
the sparse join against about 35 ms by the dict join.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

# Products with fewer left-right term pairs than this use the dict join.
# Measured on a 2-core VM (CPython 3.11, numpy 2.4, scipy 1.17) over 408
# products of random elements and matrix-unit embeddings: below 16 pairs
# a product takes a median 5 us by the dict join against 180 us by the
# sparse join, whose setup is a fixed cost; the dict join was faster on
# all 378 products below 2,048 pairs, the sparse join on 8 of 14 from
# 2,048 to 4,096 and on 7 of 12 from 4,096 to 8,192 (the other 5, random
# elements with few contractions per pair, ran 1-14 % slower), and at
# 62,000 pairs (matrix units at d = 2, m = 4) it takes 1.1-1.2 ms
# against 3.8-4.8 ms.
SPARSE_JOIN_MIN_PAIRS = 4096


class QC:
    """Exact complex rational: a pair of Fractions (re, im).

    Floats are rejected unless they are integral, keeping the symbolic
    layer free of rounding.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @staticmethod
    def of(value) -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, complex):
            return QC(_as_fraction(value.real), _as_fraction(value.imag))
        return QC(_as_fraction(value))

    def __add__(self, other):
        other = QC.of(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __rsub__(self, other):
        return QC.of(other) + (-self)

    def __mul__(self, other):
        other = QC.of(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.of(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (QC, int, Fraction, complex)):
            other = QC.of(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise TypeError(
            f"non-integral float {value!r} not allowed in the exact layer; "
            "pass a Fraction or a rational string"
        )
    raise TypeError(f"cannot build an exact scalar from {value!r}")


QC_ZERO = QC(0)
QC_ONE = QC(1)
_set_re, _set_im = QC.re.__set__, QC.im.__set__


def _exact_qc(re: Fraction, im: Fraction) -> QC:
    """QC from two Fractions, without the checks of QC.__init__."""
    q = object.__new__(QC)
    _set_re(q, re)
    _set_im(q, im)
    return q


@dataclass(frozen=True)
class AlgebraKind:
    """Which algebra the element lives in: L_d, C_d, or L_inf."""

    family: str  # "leavitt" | "cohn" | "linf"
    d: int | None

    def __post_init__(self):
        if self.family not in ("leavitt", "cohn", "linf"):
            raise ValueError(f"unknown algebra family {self.family!r}")
        if self.family == "linf":
            if self.d is not None:
                raise ValueError("L_inf has no generator bound d")
        elif self.d is None or self.d < 2:
            raise ValueError("finite Leavitt/Cohn algebras need d >= 2")

    def check_letter(self, j: int):
        if not isinstance(j, int) or j < 1:
            raise ValueError(f"generator index {j!r} must be a positive integer")
        if self.d is not None and j > self.d:
            raise ValueError(f"generator index {j} exceeds d = {self.d}")

    @property
    def has_sum_relation(self) -> bool:
        return self.family == "leavitt"

    def __str__(self):
        if self.family == "linf":
            return "L_inf"
        return ("L_" if self.family == "leavitt" else "C_") + str(self.d)


def leavitt(d: int) -> AlgebraKind:
    return AlgebraKind("leavitt", d)


def cohn(d: int) -> AlgebraKind:
    return AlgebraKind("cohn", d)


def leavitt_infinity() -> AlgebraKind:
    return AlgebraKind("linf", None)


def term_sort_key(key):
    alpha, beta = key
    return (len(alpha) + len(beta), alpha, beta)


def _reducible(key, d: int) -> bool:
    alpha, beta = key
    return bool(alpha) and bool(beta) and alpha[-1] == d and beta[-1] == d


def _to_lattice(terms: dict) -> tuple:
    """Scale a term dict onto the Gaussian integers: returns (den, pairs)
    with den the lcm of every coefficient denominator and pairs mapping
    each key to the integer pair (re, im) of den * coefficient.  Each
    coefficient is read once, by as_integer_ratio (the numerator and
    denominator properties cost a Python call each), den is one lcm of
    the distinct denominators, and den = 1 takes the numerators as they
    are."""
    ratios = [c.re.as_integer_ratio() + c.im.as_integer_ratio() for c in terms.values()]
    den = math.lcm(*{r[1] for r in ratios}.union(r[3] for r in ratios))
    if den == 1:
        return 1, {key: (r[0], r[2]) for key, r in zip(terms, ratios)}
    return den, {
        key: (r[0] * (den // r[1]), r[2] * (den // r[3])) for key, r in zip(terms, ratios)
    }


def _from_lattice(pairs: dict, den: int) -> dict:
    """Inverse of _to_lattice, dropping the zero entries.  Each distinct
    lattice integer becomes one Fraction, shared by the QCs that hold it."""
    fractions = {
        n: Fraction(n) if den == 1 else Fraction(n, den)
        for n in {n for pair in pairs.values() for n in pair}
    }
    return {
        key: _exact_qc(fractions[re], fractions[im])
        for key, (re, im) in pairs.items()
        if re or im
    }


def _reduce_term_dict(terms: dict, d: int, pop_order=None) -> dict:
    """Rewrite a raw lattice term dict into the canonical L_d basis, in
    place.  The rule only adds and negates, so integers stay integers.

    pop_order, when given, permutes the worklist before each pop; the
    result is the same for every order (the redex of a monomial is
    unique, so the rewriting is confluent), which the tests exercise.
    """
    work = [k for k in terms if _reducible(k, d)]
    while work:
        if pop_order is not None:
            pop_order(work)
        key = work.pop()
        coeff = terms.pop(key, None)
        if coeff is None:
            continue
        (alpha, beta), (re, im) = key, coeff
        updates = [((alpha[:-1], beta[:-1]), re, im)]
        updates += [((alpha[:-1] + (j,), beta[:-1] + (j,)), -re, -im) for j in range(1, d)]
        for k2, dr, di in updates:
            old = terms.get(k2)
            if old is None:
                terms[k2] = (dr, di)
                if _reducible(k2, d):
                    work.append(k2)
            elif old[0] + dr or old[1] + di:
                terms[k2] = (old[0] + dr, old[1] + di)
            else:
                del terms[k2]
    return terms


class AlgebraElement:
    """A finite linear combination of monomials s_alpha t_beta.

    Stored as a mapping (alpha, beta) -> nonzero QC.  The ``canonical``
    flag records whether the L_d reduction rule has been exhausted
    (always true for Cohn and L_inf elements).
    """

    __slots__ = ("kind", "terms", "canonical")
    __hash__ = None

    def __init__(self, kind: AlgebraKind, terms, _trusted=False):
        if _trusted:
            clean = terms
        else:
            clean = {}
            for (alpha, beta), coeff in dict(terms).items():
                alpha, beta = tuple(alpha), tuple(beta)
                for j in itertools.chain(alpha, beta):
                    kind.check_letter(j)
                coeff = QC.of(coeff)
                acc = clean.get((alpha, beta), QC_ZERO) + coeff
                if acc.is_zero():
                    clean.pop((alpha, beta), None)
                else:
                    clean[(alpha, beta)] = acc
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", clean)
        canonical = not kind.has_sum_relation or not any(
            _reducible(k, kind.d) for k in clean
        )
        object.__setattr__(self, "canonical", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def coefficient(self, alpha, beta) -> QC:
        return self.terms.get((tuple(alpha), tuple(beta)), QC_ZERO)

    def t_depth(self) -> int:
        """Largest l(beta) over the terms (0 for the zero element)."""
        return max((len(b) for (_, b) in self.terms), default=0)

    # -- arithmetic ------------------------------------------------------

    def _require_same_kind(self, other):
        if self.kind != other.kind:
            raise ValueError(f"kind mismatch: {self.kind} vs {other.kind}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_kind(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, QC_ZERO) + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return AlgebraElement(self.kind, terms, _trusted=True)

    def __neg__(self):
        return AlgebraElement(
            self.kind, {k: -c for k, c in self.terms.items()}, _trusted=True
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "AlgebraElement":
        scalar = QC.of(scalar)
        if scalar.is_zero():
            return AlgebraElement(self.kind, {}, _trusted=True)
        return AlgebraElement(
            self.kind, {k: c * scalar for k, c in self.terms.items()}, _trusted=True
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.kind != other.kind:
            return False
        return normal_form(self).terms == normal_form(other).terms

    def __repr__(self):
        from .grammar import format_element

        return f"<{self.kind}: {format_element(self)}>"


# -- element constructors ----------------------------------------------


def zero(kind: AlgebraKind) -> AlgebraElement:
    return AlgebraElement(kind, {})


def unit(kind: AlgebraKind) -> AlgebraElement:
    return AlgebraElement(kind, {((), ()): QC_ONE})


def monomial(kind: AlgebraKind, alpha, beta, coeff=1) -> AlgebraElement:
    return AlgebraElement(kind, {(tuple(alpha), tuple(beta)): coeff})


def gen_s(kind: AlgebraKind, j: int) -> AlgebraElement:
    return monomial(kind, (j,), ())


def gen_t(kind: AlgebraKind, j: int) -> AlgebraElement:
    return monomial(kind, (), (j,))


def words(d: int, n: int):
    """All words of length n on {1..d}, in lexicographic order."""
    return [tuple(w) for w in itertools.product(range(1, d + 1), repeat=n)]


# -- operations --------------------------------------------------------


def _mul_term_dicts(a_terms: dict, b_terms: dict) -> dict:
    """Contract (s_alpha t_beta)(s_gamma t_delta) over two lattice term
    dicts by prefix matching: t_beta s_gamma is s_rest when gamma =
    beta.rest, t_rest when beta = gamma.rest, and zero otherwise.  The
    terms of b are indexed once by gamma and by every proper prefix of
    gamma.  Each t-word beta of a gets one list of the terms of b that
    it does not kill, as the s-suffix, t-word and coefficient of each
    contraction, which every term of a with that beta reuses.  The terms
    of a are visited in their own order, so the result's keys come in
    the order of a term-by-term contraction: by term of a, then by hit,
    where the hits of beta are the terms of b whose gamma extends beta
    strictly, then those with gamma = beta[:k] for k = 0..l(beta), each
    group in b's order.  This is the dict join, the exact reference
    that _sparse_join reproduces term for term and key for key."""
    by_gamma: dict = {}  # gamma -> [(gamma, delta, coeff)]
    by_prefix: dict = {}  # proper prefix of gamma -> [(gamma, delta, coeff)]
    for (gamma, delta), cb in b_terms.items():
        entry = (gamma, delta, cb)
        by_gamma.setdefault(gamma, []).append(entry)
        for k in range(len(gamma)):
            by_prefix.setdefault(gamma[:k], []).append(entry)
    hit_lists: dict = {}  # beta -> (s-suffixes, t-words, coeffs), three parallel lists
    terms: dict = {}
    for (alpha, beta), (ar, ai) in a_terms.items():
        hits = hit_lists.get(beta)
        if hits is None:
            n = len(beta)
            hits = hit_lists[beta] = ([], [], [])
            rests, words, coeffs = hits
            for gamma, delta, cb in by_prefix.get(beta, ()):
                rests.append(gamma[n:])
                words.append(delta)
                coeffs.append(cb)
            for k in range(n + 1):
                for _, delta, cb in by_gamma.get(beta[:k], ()):
                    rests.append(())
                    words.append(delta + beta[k:])
                    coeffs.append(cb)
        for rest, word, (br, bi) in zip(*hits):
            key = (alpha + rest, word)
            re, im = ar * br - ai * bi, ar * bi + ai * br
            old = terms.get(key)
            terms[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return {key: c for key, c in terms.items() if c[0] or c[1]}


def _csr(rows: list, cols: list, data, shape: tuple):
    """CSR matrix whose rows keep their entries in input order (repeated
    positions stay separate, and a product adds them), and that order as
    a permutation of the input."""
    rows = np.array(rows, dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    cols = np.array(cols, dtype=np.intp)[order]
    return sparse.csr_array((data[order], cols, indptr), shape=shape), order


def _complex_values(terms: dict):
    """The lattice coefficients as complex doubles, in term order."""
    pairs = np.array(list(terms.values()), dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _sparse_join(a_terms: dict, b_terms: dict) -> dict:
    """The dict join as sparse complex matrix products, C = Ã·B + A·B̃.

    Rows index s-words, columns t-words, and the middle index of each
    contraction is the longer of beta and gamma.  A and B hold the terms
    of a and b as they are.  Ã places each term (alpha, beta) of a at
    (alpha.r, beta.r) for every suffix r, empty included, such that
    beta.r is a gamma of b; B̃ places each term (gamma, delta) of b at
    (gamma.r, delta.r) for every nonempty r such that gamma.r is a beta
    of a.  Each pair of terms then meets at most once, in one of the two
    products, which scipy forms as one block product [Ã A]·[B; B̃].  The
    caller keeps |a|_1 |b|_1 below 2**53, which bounds every partial
    sum, so the complex doubles stay integers and the result is exact.

    The keys come in the dict join's order.  Each contraction's rank is
    (term of a, hit group, term of b), the order in which _mul_term_dicts
    visits it, and a key's place is the smallest rank that reaches it.
    The ranks are expanded over the same CSR structure, one per
    contraction, as the sum of two parts: a left entry carries its term
    of a and, when r is empty, the hit group of gamma = beta; a right
    entry carries its term of b and, in B̃, the hit group of its gamma.
    """
    if not a_terms or not b_terms:
        return {}
    n_b = len(b_terms)
    gammas: dict = {}  # gamma of b -> middle index of Ã·B
    for gamma, _ in b_terms:
        gammas.setdefault(gamma, len(gammas))
    betas: dict = {}  # beta of a -> middle index of A·B̃, after the gammas
    for _, beta in a_terms:
        betas.setdefault(beta, len(gammas) + len(betas))
    gamma_ext: dict = {}  # word -> [(r, middle index)] over the gammas word.r
    for gamma, k in gammas.items():
        for n in range(len(gamma) + 1):
            gamma_ext.setdefault(gamma[:n], []).append((gamma[n:], k))
    beta_ext: dict = {}  # word -> [(r, middle index)] over the betas word.r, r nonempty
    for beta, k in betas.items():
        for n in range(len(beta)):
            beta_ext.setdefault(beta[:n], []).append((beta[n:], k))
    # rank = i * stride + g * n_b + j for term i of a, hit group g and
    # term j of b: g = 0 when gamma extends beta strictly, 1 + l(gamma)
    # when gamma is a prefix of beta
    stride = (max(map(len, betas)) + 2) * n_b
    s_ids: dict = {}
    t_ids: dict = {}
    l_rows, l_mids, l_ranks = [], [], []
    for i, (alpha, beta) in enumerate(a_terms):
        base = i * stride
        l_rows.append(s_ids.setdefault(alpha, len(s_ids)))
        l_mids.append(betas[beta])
        l_ranks.append(base)
        last = base + (len(beta) + 1) * n_b
        for r, k in gamma_ext.get(beta, ()):
            l_rows.append(s_ids.setdefault(alpha + r, len(s_ids)))
            l_mids.append(k)
            l_ranks.append(base if r else last)
    r_rows, r_cols, r_ranks = [], [], []
    for j, (gamma, delta) in enumerate(b_terms):
        r_rows.append(gammas[gamma])
        r_cols.append(t_ids.setdefault(delta, len(t_ids)))
        r_ranks.append(j)
        rank = (len(gamma) + 1) * n_b + j
        for r, k in beta_ext.get(gamma, ()):
            r_rows.append(k)
            r_cols.append(t_ids.setdefault(delta + r, len(t_ids)))
            r_ranks.append(rank)
    n_s, n_t, n_mid = len(s_ids), len(t_ids), len(gammas) + len(betas)
    l_ranks = np.array(l_ranks, dtype=np.int64)
    r_ranks = np.array(r_ranks, dtype=np.int64)
    left, _ = _csr(l_rows, l_mids, _complex_values(a_terms)[l_ranks // stride], (n_s, n_mid))
    right, r_order = _csr(r_rows, r_cols, _complex_values(b_terms)[r_ranks % n_b], (n_mid, n_t))
    product = left @ right
    rows = np.repeat(np.arange(n_s, dtype=np.int64), np.diff(product.indptr))
    cols, data = product.indices, product.data
    live = data != 0
    rows, cols, data = rows[live], cols[live], data[live]
    if not data.size:
        return {}
    # the contractions: each left entry meets the row of right at its middle index
    ptr = right.indptr
    l_mids = np.array(l_mids, dtype=np.intp)
    counts = ptr[l_mids + 1] - ptr[l_mids]
    pos = np.arange(counts.sum()) + np.repeat(ptr[l_mids] - (np.cumsum(counts) - counts), counts)
    keys = np.repeat(np.array(l_rows, dtype=np.int64) * n_t, counts) + right.indices[pos]
    ranks = np.repeat(l_ranks, counts) + r_ranks[r_order][pos]
    by_key = np.argsort(keys)
    keys = keys[by_key]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    first = np.minimum.reduceat(ranks[by_key], starts)
    order = np.argsort(first[np.searchsorted(keys[starts], rows * n_t + cols)])
    s_words, t_words = list(s_ids), list(t_ids)
    return {
        (s_words[r], t_words[c]): (re, im)
        for r, c, re, im in zip(
            rows[order].tolist(),
            cols[order].tolist(),
            data.real[order].astype(np.int64).tolist(),
            data.imag[order].astype(np.int64).tolist(),
        )
    }


def _l1(terms: dict) -> int:
    """Sum of |re| + |im| over the lattice coefficients."""
    return sum(abs(re) + abs(im) for re, im in terms.values())


def _product(a: AlgebraElement, b: AlgebraElement, reduce: bool) -> AlgebraElement:
    a._require_same_kind(b)
    da, a_terms = _to_lattice(a.terms)
    db, b_terms = _to_lattice(b.terms)
    if len(a_terms) * len(b_terms) >= SPARSE_JOIN_MIN_PAIRS and _l1(a_terms) * _l1(b_terms) < 2**53:
        terms = _sparse_join(a_terms, b_terms)
    else:
        terms = _mul_term_dicts(a_terms, b_terms)
    if reduce and a.kind.has_sum_relation:
        _reduce_term_dict(terms, a.kind.d)
    return AlgebraElement(a.kind, _from_lattice(terms, da * db), _trusted=True)


def mul_raw(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product with monomial contraction only, no basis reduction."""
    return _product(a, b, reduce=False)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Canonical product, via (s_a t_b)(s_g t_d) contraction."""
    return _product(a, b, reduce=True)


def normal_form(a: AlgebraElement, _pop_order=None) -> AlgebraElement:
    """Canonical form of a; idempotent, the identity off Leavitt kinds."""
    if a.canonical and _pop_order is None:
        return a
    if not a.kind.has_sum_relation:
        return a
    den, terms = _to_lattice(a.terms)
    _reduce_term_dict(terms, a.kind.d, pop_order=_pop_order)
    return AlgebraElement(a.kind, _from_lattice(terms, den), _trusted=True)


def star(a: AlgebraElement) -> AlgebraElement:
    """Conjugate-linear antimultiplicative involution, s_j* = t_j."""
    return AlgebraElement(
        a.kind,
        {(b, al): c.conjugate() for (al, b), c in a.terms.items()},
        _trusted=True,
    )


def prime(a: AlgebraElement) -> AlgebraElement:
    """Linear antimultiplicative involution, s_j' = t_j."""
    return AlgebraElement(
        a.kind, {(b, al): c for (al, b), c in a.terms.items()}, _trusted=True
    )


def graded_components(a: AlgebraElement) -> dict:
    """Split a canonical element by degree l(alpha) - l(beta)."""
    if not a.canonical:
        raise ValueError("graded_components expects a canonical element")
    parts: dict = {}
    for (alpha, beta), coeff in a.terms.items():
        parts.setdefault(len(alpha) - len(beta), {})[(alpha, beta)] = coeff
    return {
        k: AlgebraElement(a.kind, terms, _trusted=True)
        for k, terms in sorted(parts.items())
    }


@dataclass(frozen=True)
class SameLengthForm:
    """Joint rewriting of several elements with one right length n.

    coefficients[k] maps (alpha, beta) with alpha in alphas and beta of
    length n to the exact coefficient of s_alpha t_beta in the k-th
    element.
    """

    n: int
    alphas: tuple
    coefficients: tuple

    def rebuild(self, kind: AlgebraKind, k: int) -> AlgebraElement:
        return AlgebraElement(kind, dict(self.coefficients[k]))


def same_length_form(elements, n_min: int = 0) -> SameLengthForm:
    """Express elements of one L_d with all t-words of a common length.

    Pads each monomial s_alpha t_beta with sum_{gamma in W_l} s_gamma
    t_gamma on the right, l = n - l(beta); n is the largest t-word
    length across the inputs (or n_min if that is larger).
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    kind = elements[0].kind
    if kind.family != "leavitt":
        raise ValueError("same-length expansion needs a finite Leavitt algebra")
    for e in elements:
        e._require_same_kind(elements[0])
    canon = [normal_form(e) for e in elements]
    n = max(n_min, max((e.t_depth() for e in canon), default=0))
    d = kind.d
    alphas = set()
    tables = []
    for e in canon:
        table: dict = {}
        for (alpha, beta), coeff in e.terms.items():
            pad = n - len(beta)
            for gamma in words(d, pad):
                key = (alpha + gamma, beta + gamma)
                acc = table.get(key, QC_ZERO) + coeff
                if acc.is_zero():
                    table.pop(key, None)
                else:
                    table[key] = acc
        alphas.update(alpha for (alpha, _) in table)
        tables.append(table)
    return SameLengthForm(
        n=n,
        alphas=tuple(sorted(alphas)),
        coefficients=tuple(tables),
    )


def matrix_unit_embed(kind: AlgebraKind, m: int, table) -> AlgebraElement:
    """Image of a d^m x d^m coefficient table under e_{alpha,beta} -> s_alpha t_beta.

    ``table`` is either a mapping (alpha, beta) -> scalar with word keys
    of length m, or a square array indexed by words(d, m) in
    lexicographic order.
    """
    if kind.family != "leavitt":
        raise ValueError("matrix units of this size live in a finite Leavitt algebra")
    d = kind.d
    word_list = words(d, m)
    terms = {}
    if hasattr(table, "items"):
        items = []
        for (alpha, beta), coeff in table.items():
            alpha, beta = tuple(alpha), tuple(beta)
            if len(alpha) != m or len(beta) != m:
                raise ValueError("index words of wrong length")
            items.append(((alpha, beta), coeff))
        for key, coeff in items:
            coeff = QC.of(coeff)
            if coeff.is_zero():
                continue
            acc = terms.get(key, QC_ZERO) + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
    else:
        rows = list(table)
        if len(rows) != len(word_list):
            raise ValueError("index words of wrong length")
        for i, row in enumerate(rows):
            rows[i] = row = list(row)
            if len(row) != len(word_list):
                raise ValueError("index words of wrong length")
        # each (alpha, beta) occurs once, so nothing accumulates
        for alpha, row in zip(word_list, rows):
            for beta, coeff in zip(word_list, row):
                coeff = QC.of(coeff)
                if not coeff.is_zero():
                    terms[(alpha, beta)] = coeff
    return normal_form(AlgebraElement(kind, terms, _trusted=True))


def _linear_comb(kind: AlgebraKind, lam, key) -> AlgebraElement:
    """sum_j lambda_j g_j, with key(j) the (alpha, beta) term of g_j."""
    lam = list(lam)
    if kind.d is not None and len(lam) > kind.d:
        raise ValueError(f"coefficient vector longer than d = {kind.d}")
    terms = {}
    for j, value in enumerate(lam, start=1):
        coeff = QC.of(value)
        if not coeff.is_zero():
            terms[key(j)] = coeff
    return AlgebraElement(kind, terms, _trusted=True)


def linear_comb_s(kind: AlgebraKind, lam) -> AlgebraElement:
    """s_lambda = sum_j lambda_j s_j (lambda finitely supported)."""
    return _linear_comb(kind, lam, lambda j: ((j,), ()))


def linear_comb_t(kind: AlgebraKind, lam) -> AlgebraElement:
    """t_lambda = sum_j lambda_j t_j."""
    return _linear_comb(kind, lam, lambda j: ((), (j,)))
