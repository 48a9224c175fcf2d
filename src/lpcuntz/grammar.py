"""Text and JSON forms for algebra elements.

Grammar: terms joined by ``+``/``-``; each term is ``*``-separated
factors; factors are scalar literals (``2``, ``-1/3``, ``(1+2i)``,
``(1/2+3/4i)``), generators (``s[1,2]``, ``t[2]``, shorthand ``s12``
when d <= 9), or ``1`` for the unit.  The JSON form is
``{"kind": ..., "d": ..., "terms": [{"re": "1/2", "im": "0",
"alpha": [...], "beta": [...]}]}`` with rational-string coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .leavitt import (
    QC,
    AlgebraElement,
    AlgebraKind,
    cohn,
    leavitt,
    leavitt_infinity,
    monomial,
    mul_raw,
    unit,
    zero,
)


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self, char: str):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str):
        if not self.take(char):
            raise ParseError(f"expected {char!r}", self.pos)

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", self.pos)
        num = int(self.text[start : self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                raise ParseError("expected a denominator", self.pos)
            return Fraction(num, int(self.text[dstart : self.pos]))
        return Fraction(num)


def _parse_signed_number(sc: _Scanner) -> Fraction:
    sign = 1
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    return sign * sc.number()


def _parse_complex_literal(sc: _Scanner) -> QC:
    # '(' already consumed
    first = _parse_signed_number(sc)
    sc.skip_ws()
    if sc.peek() == "i":
        sc.pos += 1
        sc.expect(")")
        return QC(0, first)
    ch = sc.peek()
    if ch not in "+-":
        sc.expect(")")
        return QC(first, 0)
    second = _parse_signed_number(sc)
    sc.skip_ws()
    if sc.peek() != "i":
        raise ParseError("expected 'i' after imaginary part", sc.pos)
    sc.pos += 1
    sc.expect(")")
    return QC(first, second)


def _parse_word(sc: _Scanner, kind: AlgebraKind) -> tuple:
    if sc.take("["):
        letters = []
        while True:
            letters.append(int(sc.number()))
            sc.skip_ws()
            if sc.take(","):
                continue
            sc.expect("]")
            break
        return tuple(letters)
    # digit shorthand, one letter per digit; only unambiguous for d <= 9
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
        sc.pos += 1
    if sc.pos == start:
        raise ParseError("expected generator indices", sc.pos)
    digits = sc.text[start : sc.pos]
    if kind.d is None or kind.d > 9:
        raise ParseError("digit shorthand needs d <= 9; use s[...] form", start)
    return tuple(int(c) for c in digits)


def _parse_factor(sc: _Scanner, kind: AlgebraKind) -> AlgebraElement:
    ch = sc.peek()
    if ch == "(":
        sc.pos += 1
        return unit(kind).scale(_parse_complex_literal(sc))
    if ch in "st":
        sc.pos += 1
        word = _parse_word(sc, kind)
        for j in word:
            kind.check_letter(j)
        if ch == "s":
            return monomial(kind, word, ())
        return monomial(kind, (), word)
    if ch.isdigit():
        return unit(kind).scale(QC(sc.number()))
    raise ParseError(f"unexpected character {ch!r}", sc.pos)


def _parse_term(sc: _Scanner, kind: AlgebraKind) -> AlgebraElement:
    out = _parse_factor(sc, kind)
    while sc.take("*"):
        out = mul_raw(out, _parse_factor(sc, kind))
    return out


def parse_element(text: str, kind: AlgebraKind) -> AlgebraElement:
    """Parse the textual grammar into a canonical element."""
    sc = _Scanner(text)
    if sc.peek() == "":
        raise ParseError("empty element text", 0)
    if sc.peek() == "0" and sc.text.strip() == "0":
        return zero(kind)
    negate = sc.take("-")
    if not negate:
        sc.take("+")
    out = _parse_term(sc, kind)
    if negate:
        out = -out
    while True:
        sc.skip_ws()
        if sc.pos >= len(sc.text):
            break
        if sc.take("+"):
            out = out + _parse_term(sc, kind)
        elif sc.take("-"):
            out = out - _parse_term(sc, kind)
        else:
            raise ParseError("expected '+' or '-'", sc.pos)
    return out


# -- formatting ----------------------------------------------------------


def format_scalar(c: QC) -> str:
    if c.im == 0:
        return str(c.re)
    return f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)"


def _format_word(letters, prefix: str, d) -> str:
    if d is not None and d <= 9:
        return prefix + "".join(str(j) for j in letters)
    return prefix + "[" + ",".join(str(j) for j in letters) + "]"


def format_element(a: AlgebraElement) -> str:
    """Deterministic text form, terms ordered by (length, alpha, beta)."""
    if a.is_zero():
        return "0"
    pieces = []
    for (alpha, beta), coeff in a.sorted_terms():
        factors = []
        if alpha:
            factors.append(_format_word(alpha, "s", a.kind.d))
        if beta:
            factors.append(_format_word(beta, "t", a.kind.d))
        negative = coeff.im == 0 and coeff.re < 0
        mag = -coeff if negative else coeff
        if not factors:
            body = format_scalar(mag)
        elif mag == QC(1):
            body = "*".join(factors)
        else:
            body = "*".join([format_scalar(mag)] + factors)
        pieces.append(("-" if negative else "+", body))
    sign0, body0 = pieces[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- JSON ----------------------------------------------------------------

_FAMILY_NAMES = {"leavitt": "leavitt", "cohn": "cohn", "linf": "leavitt_infinity"}
_FAMILY_FROM_NAME = {v: k for k, v in _FAMILY_NAMES.items()}


def kind_to_json(kind: AlgebraKind) -> dict:
    return {"kind": _FAMILY_NAMES[kind.family], "d": kind.d}


def kind_from_json(data: dict) -> AlgebraKind:
    family = _FAMILY_FROM_NAME[data["kind"]]
    if family == "leavitt":
        return leavitt(int(data["d"]))
    if family == "cohn":
        return cohn(int(data["d"]))
    return leavitt_infinity()


def element_to_json(a: AlgebraElement) -> dict:
    out = kind_to_json(a.kind)
    out["terms"] = [
        {
            "re": str(coeff.re),
            "im": str(coeff.im),
            "alpha": list(alpha),
            "beta": list(beta),
        }
        for (alpha, beta), coeff in a.sorted_terms()
    ]
    return out


def element_from_json(data: dict) -> AlgebraElement:
    kind = kind_from_json(data)
    terms = {}
    for item in data["terms"]:
        key = (tuple(item["alpha"]), tuple(item["beta"]))
        coeff = QC(Fraction(item["re"]), Fraction(item["im"]))
        if key in terms:
            coeff = coeff + terms[key]
        terms[key] = coeff
    return AlgebraElement(kind, terms)
