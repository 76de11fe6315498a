"""Exact sparse multivariate polynomials with integer coefficients.

A polynomial in x1..xn is a finite map from exponent vectors (length-n
tuples of nonnegative ints) to nonzero Python ints.  Coefficients are
unbounded.  Exponents are nonnegative and at most ``MAX_EXPONENT`` (255):
a larger exponent, whether given or produced by a product, raises
``ValueError``, as does a non-int exponent, coefficient or variable
count given to a constructor or a parser: none is truncated.  The
two places where a negative power would be convenient are covered
instead by :func:`exact_divide_monomial`, which divides by a monomial
under a zero-remainder contract.

Canonical term order is graded-lexicographic: ascending total degree,
ties broken by descending exponent vector, so equal polynomials always
serialize identically.

Inside a polynomial each exponent vector is packed into one int, the
key of its term in ``terms``: the exponent of x_i sits in the 8-bit
field at bit 8 * (n - i), so x_1 is the highest field and int order on
the fields is lex order, and the total degree sits above all of them,
from bit 8 * n up, unbounded.  The key of a product of monomials is the
sum of their keys, and int order on whole keys is ascending degree, then
lex order.  Everything public takes and returns tuples.

Terms from outside enter through one kernel, which adds up repeated
vectors and drops sums of 0: the constructor (so ``zero``, ``one``,
``constant`` and ``monomial`` too), ``parse`` and ``from_json`` feed it
exponent vectors, and ``+``, ``-`` and ``*`` packed keys.  Code that sees
no outside input keeps its own measured hot loops: the bijective
shifts ``mul_monomial``, ``swap_variables`` and
:func:`exact_divide_monomial` here, ``_apply`` in
:mod:`orthodontia.operators`, and the memo of
:mod:`orthodontia.grothendieck`, whose module docstring describes how it
stores keys.

Polynomials are immutable values and safe to share between threads;
``copy`` and ``pickle`` rebuild one from its exponent vectors through
the constructor.  The one exception is ``_Owned``, an intermediate of a
walk in :mod:`orthodontia.grothendieck` that keeps no other polynomial:
``mul_monomial`` and the operators empty it as they read it, and it
never leaves that module.
"""

from __future__ import annotations

import io
import operator
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, TextIO

from orthodontia._value import Value

Monomial = tuple[int, ...]

_FIELD = 8  # bits per exponent field
MAX_EXPONENT = (1 << _FIELD) - 1
# terms per step of the text writer and the snapshot, which hold one
# step's strings at a time
_CHUNK = 4096


class RankMismatchError(ValueError):
    """Polynomials or monomials over different variable counts were mixed."""


class DivisionRemainderError(ArithmeticError):
    """An exact division left a nonzero remainder; the caller broke a contract."""


class _Factors(dict):
    """The factor string of each value of `count` exponent fields, the
    first of them x_{first+1}, as "x2^3*x4"; "" for all zeros.  Filled on
    demand."""

    __slots__ = ("count", "first")

    def __init__(self, count: int, first: int):
        self.count, self.first = count, first

    def __missing__(self, fields: int) -> str:
        exps = fields.to_bytes(self.count, "big")
        name = self[fields] = "*".join(
            f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, self.first + 1) if e
        )
        return name


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


def _variable_count(n: int) -> int:
    """n as an int, refused unless it is an int of at least 1."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"variable count {n!r} is not an int") from None
    if n < 1:
        raise ValueError("variable count must be at least 1")
    return n


def _pack(exps: Monomial) -> int:
    """The key of x^exps; refuses exponents outside 0..MAX_EXPONENT."""
    if min(exps) < 0:
        raise ValueError(f"negative exponent in {exps}")
    if max(exps) > MAX_EXPONENT:
        raise ValueError(f"exponent above {MAX_EXPONENT} in {exps}")
    return sum(exps) << (_FIELD * len(exps)) | int.from_bytes(bytes(exps), "big")


def _unpack(key: int, n: int) -> Monomial:
    """The exponent vector of a key of n fields."""
    return tuple((key & ((1 << _FIELD * n) - 1)).to_bytes(n, "big"))


def _degree(keys: Iterable[int], n: int) -> int:
    """The largest total degree among nonempty keys of n fields."""
    return max(keys) >> _FIELD * n


def _max_exponents(keys: Iterable[int], n: int) -> Monomial:
    """The largest exponent of each variable among nonempty keys of n fields."""
    mask = (1 << _FIELD * n) - 1
    data = b"".join([(k & mask).to_bytes(n, "big") for k in keys])
    return tuple(max(data[i::n]) for i in range(n))


class Polynomial(Value):
    """An element of Z[x1, ..., xn], stored sparsely."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | Iterable | None = None):
        """The sum in x1..xn of ``terms``, a mapping or (exponents, coefficient) pairs."""
        n = _variable_count(n)
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", _add_terms({}, _packed(n, pairs)))

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.sorted_terms())

    @classmethod
    def _raw(cls, n: int, terms: dict[int, int]) -> Polynomial:
        # internal fast path: packed keys of n fields, no zero coefficients
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, n: int) -> Polynomial:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> Polynomial:
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c: int) -> Polynomial:
        n = _variable_count(n)
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, j: int, n: int) -> Polynomial:
        """The polynomial x_j (1-based)."""
        n = _variable_count(n)
        try:
            j = operator.index(j)
        except TypeError:
            raise ValueError(f"variable index {j!r} is not an int") from None
        if not 1 <= j <= n:
            raise ValueError(f"variable index {j} out of range for n={n}")
        return cls._raw(n, {1 << _FIELD * n | 1 << _FIELD * (n - j): 1})

    @classmethod
    def monomial(cls, exps: Monomial, coeff: int = 1) -> Polynomial:
        exps = tuple(exps)
        return cls(len(exps), [(exps, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_rank(self, other: Polynomial) -> None:
        if self.n != other.n:
            raise RankMismatchError(f"polynomial ranks differ: {self.n} vs {other.n}")

    def _check_product(self, other: Polynomial) -> None:
        # Refuse self * other when a product exponent would pass MAX_EXPONENT.
        # An exponent is at most its term's degree, so the maxima are read
        # only when the degrees allow it.  The refusal is exact: the terms
        # with the largest exponent of x_i, ties broken lexicographically,
        # multiply to a term that nothing cancels.
        if self.degree() + other.degree() <= MAX_EXPONENT:
            return
        for i, (a, b) in enumerate(zip(self.max_exponents(), other.max_exponents())):
            if a + b > MAX_EXPONENT:
                raise ValueError(f"product has x{i + 1}^{a + b}, above the exponent bound {MAX_EXPONENT}")

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
        return Polynomial._raw(self.n, _add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        if isinstance(other, int):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        negated = ((k, -c) for k, c in other.terms.items())
        return Polynomial._raw(self.n, _add_terms(dict(self.terms), negated))

    def __rsub__(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.n, other) - self
        return NotImplemented

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.n)
            return Polynomial._raw(self.n, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.n)
        self._check_product(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        right = other.terms.items()
        products = ((k1 + k2, c1 * c2) for k1, c1 in self.terms.items() for k2, c2 in right)
        return Polynomial._raw(self.n, _add_terms({}, products))

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
        exps = tuple(exps)
        if len(exps) != self.n:
            raise RankMismatchError(f"monomial rank {len(exps)} vs polynomial rank {self.n}")
        shift = _pack(exps)
        if self.terms:
            self._check_product(Polynomial._raw(self.n, {shift: 1}))
        return type(self)._raw(self.n, {k + shift: c for chunk in self._chunks() for k, c in chunk})

    def _chunks(self) -> Iterable[Iterable[tuple[int, int]]]:
        # the terms as chunks of (key, coefficient) pairs; see _Owned
        return (self.terms.items(),)

    def swap_variables(self, j: int) -> Polynomial:
        """Exchange x_j and x_{j+1} in every monomial (1 <= j <= n-1)."""
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"swap index {j} out of range for n={self.n}")
        sb = _FIELD * (self.n - j - 1)  # x_{j+1}; x_j is the field above
        sa = sb + _FIELD
        step = (1 << sa) - (1 << sb)
        m = MAX_EXPONENT
        # a bijection on monomials, so no two terms meet
        out = {k + ((k >> sb & m) - (k >> sa & m)) * step: c for k, c in self.terms.items()}
        return Polynomial._raw(self.n, out)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return _degree(self.terms, self.n)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("min degree of the zero polynomial is undefined")
        return min(self.terms) >> _FIELD * self.n

    def lowest_degree_component(self) -> Polynomial:
        """The sum of terms of minimal total degree."""
        limit = (self.min_degree() + 1) << _FIELD * self.n
        return Polynomial._raw(self.n, {k: c for k, c in self.terms.items() if k < limit})

    def max_exponents(self) -> Monomial:
        """The largest exponent of each variable over the support (the lcm's exponents)."""
        if not self.terms:
            raise ValueError("max exponents of the zero polynomial are undefined")
        return _max_exponents(self.terms, self.n)

    def coefficient(self, exps: Monomial) -> int:
        """The coefficient of x^exps; 0 for any exponent outside 0..MAX_EXPONENT."""
        exps = tuple(exps)
        if len(exps) != self.n:
            raise RankMismatchError(f"monomial rank {len(exps)} vs polynomial rank {self.n}")
        if min(exps) < 0 or max(exps) > MAX_EXPONENT:
            return 0
        return self.terms.get(_pack(exps), 0)

    def _canonical_keys(self) -> list[int]:
        # ascending keys, with the run of each degree reversed into
        # descending lex order; a sort key would build an int per term
        keys = sorted(self.terms)
        shift = _FIELD * self.n
        start = 0
        while start < len(keys):
            end = bisect_left(keys, (keys[start] >> shift) + 1 << shift, start)
            keys[start:end] = reversed(keys[start:end])
            start = end
        return keys

    def monomials(self) -> Iterator[Monomial]:
        """Exponent vectors of the support, in canonical order."""
        n = self.n
        return (_unpack(k, n) for k in self._canonical_keys())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """(exponents, coefficient) pairs in canonical order."""
        n, terms = self.n, self.terms
        return [(_unpack(k, n), terms[k]) for k in self._canonical_keys()]

    def __str__(self) -> str:
        out = io.StringIO()
        self.write_text(out)
        return out.getvalue()

    def write_text(self, out: TextIO) -> None:
        """Write the text form, e.g. "3*x1^2*x2 - x3", a chunk of terms at a time.

        ``str(f)`` is this text, written to a ``StringIO``.
        """
        n, terms = self.n, self.terms
        if not terms:
            out.write("0")
            return
        # Each key splits into its high and low halves of fields, and the
        # factor string of each half is formatted once: a large result has
        # far fewer distinct halves than terms
        low_bits = _FIELD * (n // 2)
        low_mask = (1 << low_bits) - 1
        high_mask = (1 << _FIELD * (n - n // 2)) - 1
        highs, lows = _Factors(n - n // 2, 0), _Factors(n // 2, n - n // 2)
        keys = self._canonical_keys()
        for start in range(0, len(keys), _CHUNK):
            parts = []
            for k in keys[start : start + _CHUNK]:
                c = terms[k]
                hi, lo = highs[k >> low_bits & high_mask], lows[k & low_mask]
                mono = f"{hi}*{lo}" if hi and lo else hi or lo
                sign = " + "
                if c < 0:
                    sign, c = " - ", -c
                parts.append(f"{sign}{c}*{mono}" if c != 1 and mono else f"{sign}{mono or c}")
            text = "".join(parts)
            if not start:  # the leading term has no " + ", and its minus no spaces
                text = text[3:] if text[1] == "+" else "-" + text[3:]
            out.write(text)

    def snapshot(self) -> tuple[int, bytes, str]:
        """A compact exact form of the polynomial: two are equal iff their
        polynomials are.

        The exponent fields of the terms as bytes, n per term, in ascending
        key order, and the terms' coefficients in decimal, as the text of
        one list per chunk of terms, in the same order.  It takes about
        n + 5 bytes per term where the polynomial takes about 90, has no
        bound on the coefficients, and is built a chunk at a time.
        """
        n, terms = self.n, self.terms
        mask = (1 << _FIELD * n) - 1
        keys = sorted(terms)
        fields, digits = [], []
        for start in range(0, len(keys), _CHUNK):
            chunk = keys[start : start + _CHUNK]
            fields.append(b"".join([(k & mask).to_bytes(n, "big") for k in chunk]))
            digits.append(str(list(map(terms.__getitem__, chunk))))
        return n, b"".join(fields), "".join(digits)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self!s})"

    def to_json(self) -> dict:
        """JSON form: {"n": n, "terms": [[coeff, [e1, ..., en]], ...]} in canonical order."""
        n, terms = self.n, self.terms
        return {"n": n, "terms": [[terms[k], list(_unpack(k, n))] for k in self._canonical_keys()]}

    def write_json(self, out: TextIO) -> None:
        """Write :meth:`to_json` as compact JSON with sorted keys, one term at a time.

        The bytes equal ``json.dumps(f.to_json(), sort_keys=True,
        separators=(",", ":"))``, but no list is built per term.
        """
        n, terms = self.n, self.terms
        mask = (1 << _FIELD * n) - 1
        out.write(f'{{"n":{n},"terms":[')
        sep = ""
        for k in self._canonical_keys():
            out.write(f"{sep}[{terms[k]},[{','.join(map(str, (k & mask).to_bytes(n, 'big')))}]]")
            sep = ","
        out.write("]}")

    @classmethod
    def from_json(cls, obj: Mapping) -> Polynomial:
        """The polynomial of :meth:`to_json`'s form: an object with n and a
        list of [coefficient, exponent vector] terms."""
        if not isinstance(obj, Mapping) or not {"n", "terms"} <= obj.keys():
            raise ValueError(f"polynomial JSON {obj!r:.40} is not an object with n and terms")
        terms = obj["terms"]
        if not isinstance(terms, (list, tuple)):
            raise ValueError(f"polynomial terms {terms!r:.40} are not a list")
        return cls(obj["n"], map(_json_term, terms))

    @classmethod
    def parse(cls, text: str, n: int) -> Polynomial:
        """Parse the text form produced by ``str``, e.g. "3*x1^2*x2 - x3"."""
        return cls(n, _parsed_terms(text, n))


class _Owned(Polynomial):
    """An intermediate that a walk of :mod:`orthodontia.grothendieck` owns,
    one that keeps no polynomial but the one in hand.

    ``mul_monomial`` and the operators of :mod:`orthodontia.operators`
    plan from its keys, then empty it as they read its terms and return
    an owned result: its dict's table goes at once, and each chunk's key
    and coefficient objects before the next chunk is read.  The walk
    returns a plain :class:`Polynomial` that shares the last dict.
    """

    __slots__ = ()

    def _chunks(self) -> Iterator[Iterable[tuple[int, int]]]:
        terms = self.terms
        keys, coeffs = list(terms), list(terms.values())
        terms.clear()
        while keys:  # from the end, each chunk cut from the lists
            start = max(len(keys) - _CHUNK, 0)
            chunk = zip(keys[start:], coeffs[start:])
            del keys[start:], coeffs[start:]
            yield chunk


def _json_term(term) -> tuple:
    """A JSON [coefficient, exponent vector] term as the pair (exponent vector, coefficient)."""
    if not isinstance(term, (list, tuple)) or len(term) != 2:
        raise ValueError(f"term {term!r:.40} is not a [coefficient, exponents] pair")
    coeff, exps = term
    return exps, coeff


def _packed(n: int, pairs: Iterable[tuple[Iterable[int], int]]) -> Iterator[tuple[int, int]]:
    """Each (exponent vector, coefficient) pair as (key, coefficient), checked."""
    for exps, coeff in pairs:
        try:
            exps, coeff = tuple(map(operator.index, exps)), operator.index(coeff)
        except TypeError:
            raise ValueError(f"term {coeff!r}*x^{exps!r} has a value that is not an int") from None
        if len(exps) != n:
            raise RankMismatchError(f"exponent vector {exps} has wrong length for n={n}")
        yield _pack(exps), coeff


def _add_terms(out: dict[int, int], pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add (key, coefficient) pairs into out, dropping a key whose sum is 0."""
    get = out.get
    for key, c in pairs:
        s = get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _parsed_terms(text: str, n: int) -> Iterator[tuple[list[int], int]]:
    # the (exponent vector, coefficient) pair of each term of the text
    # form; "0" is one term with coefficient 0
    for term in text.strip().replace(" - ", " + -").split(" + "):
        term = term.strip()
        coeff = -1 if term.startswith("-") else 1
        exps = [0] * n
        for factor in term.removeprefix("-").split("*"):
            var, _, power = factor.strip().partition("^")
            if not var.startswith("x"):
                coeff *= int(factor)
                continue
            i = int(var[1:])
            if not 1 <= i <= n:
                raise ValueError(f"variable {var} out of range for n={n}")
            exps[i - 1] += int(power) if power else 1
        yield exps, coeff


def exact_divide_monomial(f: Polynomial, exps: Monomial) -> Polynomial:
    """Divide f exactly by the monomial x^exps.

    Every term of f must be divisible by x^exps; otherwise the caller
    broke the contract and :class:`DivisionRemainderError` is raised.
    """
    exps = tuple(exps)
    if len(exps) != f.n:
        raise RankMismatchError(f"monomial rank {len(exps)} vs polynomial rank {f.n}")
    shift = _pack(exps)
    # a field of x^exps above the term's borrows across a field boundary
    boundaries = sum(1 << _FIELD * i for i in range(1, f.n + 1))
    out: dict[int, int] = {}
    for k, c in f.terms.items():
        q = k - shift
        if (k ^ shift ^ q) & boundaries:
            raise DivisionRemainderError(f"term x^{_unpack(k, f.n)} not divisible by x^{exps}")
        out[q] = c
    return Polynomial._raw(f.n, out)
