"""Exact sparse multivariate polynomials with integer coefficients.

A polynomial in x1..xn is a finite map from exponent vectors (length-n
tuples of nonnegative ints) to nonzero Python ints.  Coefficients are
unbounded; exponents are nonnegative only.  The two places where a
negative power would be convenient are covered instead by
:func:`exact_divide_monomial`, which divides by a monomial under a
zero-remainder contract.

Canonical term order is graded-lexicographic: ascending total degree,
ties broken by descending exponent vector, so equal polynomials always
serialize identically.

Polynomials are immutable values and safe to share between threads.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping

Monomial = tuple[int, ...]


class RankMismatchError(ValueError):
    """Polynomials or monomials over different variable counts were mixed."""


class DivisionRemainderError(ArithmeticError):
    """An exact division left a nonzero remainder; the caller broke a contract."""


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b, i.e. a <= b entrywise."""
    if len(a) != len(b):
        raise RankMismatchError(f"monomial ranks differ: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def fundamental_weight(j: int, n: int) -> Monomial:
    """The exponent vector of x1*x2*...*xj in n variables; j = 0 gives 1.

    >>> fundamental_weight(3, 5)
    (1, 1, 1, 0, 0)
    """
    if not 0 <= j <= n:
        raise ValueError(f"weight index {j} out of range for {n} variables")
    return (1,) * j + (0,) * (n - j)


def _canonical_order(terms: Mapping[Monomial, int]) -> list[Monomial]:
    # descending exponent vectors, then a stable sort by total degree
    order = sorted(terms, reverse=True)
    order.sort(key=sum)
    return order


class Polynomial:
    """An element of Z[x1, ..., xn], stored sparsely."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | None = None):
        if n < 1:
            raise ValueError("variable count must be at least 1")
        clean: dict[Monomial, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise RankMismatchError(f"exponent vector {exps} has wrong length for n={n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, n: int, terms: dict[Monomial, int]) -> Polynomial:
        # internal fast path: terms already normalized (no zeros, right length)
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, n: int) -> Polynomial:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> Polynomial:
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, c: int) -> Polynomial:
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, j: int, n: int) -> Polynomial:
        """The polynomial x_j (1-based)."""
        if not 1 <= j <= n:
            raise ValueError(f"variable index {j} out of range for n={n}")
        exps = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls._raw(n, {exps: 1})

    @classmethod
    def monomial(cls, exps: Monomial, coeff: int = 1) -> Polynomial:
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_rank(self, other: Polynomial) -> None:
        if self.n != other.n:
            raise RankMismatchError(f"polynomial ranks differ: {self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) - c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._raw(self.n, out)

    def __rsub__(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.n, other) - self
        return NotImplemented

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._raw(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mul_monomial(self, exps: Monomial) -> Polynomial:
        """Multiply by x^exps in a single pass."""
        if len(exps) != self.n:
            raise RankMismatchError(f"monomial rank {len(exps)} vs polynomial rank {self.n}")
        add = operator.add
        out = {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
        return Polynomial._raw(self.n, out)

    def swap_variables(self, j: int) -> Polynomial:
        """Exchange x_j and x_{j+1} in every monomial (1 <= j <= n-1)."""
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"swap index {j} out of range for n={self.n}")
        a = j - 1
        out: dict[Monomial, int] = {}
        for e, c in self.terms.items():
            if e[a] == e[a + 1]:
                out[e] = out.get(e, 0) + c
            else:
                e2 = e[:a] + (e[a + 1], e[a]) + e[a + 2:]
                out[e2] = out.get(e2, 0) + c
        return Polynomial._raw(self.n, out)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("min degree of the zero polynomial is undefined")
        return min(sum(e) for e in self.terms)

    def lowest_degree_component(self) -> Polynomial:
        """The sum of terms of minimal total degree."""
        d = self.min_degree()
        return Polynomial._raw(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, exps: Monomial) -> int:
        return self.terms.get(tuple(exps), 0)

    def monomials(self) -> Iterator[Monomial]:
        """Exponent vectors of the support, in canonical order."""
        return iter(_canonical_order(self.terms))

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """(exponents, coefficient) pairs in canonical order."""
        terms = self.terms
        return [(e, terms[e]) for e in _canonical_order(terms)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names: dict[tuple[int, int], str] = {}   # (index, exponent) -> "x{i}^{e}"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e:
                    name = names.get((i, e))
                    if name is None:
                        name = names[i, e] = f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                    factors.append(name)
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            parts.append(" - " if c < 0 else " + ")
            parts.append("*".join(factors))
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self!s})"

    def to_json(self) -> dict:
        """JSON form: {"n": n, "terms": [[coeff, [e1, ..., en]], ...]} in canonical order."""
        return {"n": self.n, "terms": [[c, list(e)] for e, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, obj: Mapping) -> Polynomial:
        n = int(obj["n"])
        terms: dict[Monomial, int] = {}
        for coeff, exps in obj["terms"]:
            terms[tuple(int(e) for e in exps)] = int(coeff)
        return cls(n, terms)

    @classmethod
    def parse(cls, text: str, n: int) -> Polynomial:
        """Parse the text form produced by ``str``, e.g. "3*x1^2*x2 - x3"."""
        s = text.strip()
        if s == "0":
            return cls.zero(n)
        s = s.replace(" - ", " + -")
        terms: dict[Monomial, int] = {}
        for chunk in s.split(" + "):
            chunk = chunk.strip()
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:].strip()
            coeff = sign
            exps = [0] * n
            for factor in chunk.split("*"):
                factor = factor.strip()
                if factor.startswith("x"):
                    var, _, power = factor.partition("^")
                    idx = int(var[1:])
                    if not 1 <= idx <= n:
                        raise ValueError(f"variable {var} out of range for n={n}")
                    exps[idx - 1] += int(power) if power else 1
                else:
                    coeff *= int(factor)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(n, terms)


def exact_divide_monomial(f: Polynomial, exps: Monomial) -> Polynomial:
    """Divide f exactly by the monomial x^exps.

    Every term of f must be divisible by x^exps; otherwise the caller
    broke the contract and :class:`DivisionRemainderError` is raised.
    """
    exps = tuple(exps)
    if len(exps) != f.n:
        raise RankMismatchError(f"monomial rank {len(exps)} vs polynomial rank {f.n}")
    out: dict[Monomial, int] = {}
    for e, c in f.terms.items():
        if not all(x >= y for x, y in zip(e, exps)):
            raise DivisionRemainderError(f"term x^{e} not divisible by x^{exps}")
        out[tuple(x - y for x, y in zip(e, exps))] = c
    return Polynomial._raw(f.n, out)
