"""Independent oracles the tests check library code against.

The library computes every operator monomial by monomial from closed
forms.  The oracles here take the other route: they form the whole
numerator f - s_j.f and divide it exactly by x_j - x_{j+1} with
synthetic division, so agreement between the two is a genuine
cross-check, not a tautology.

The support checks in the library compare per-variable maximum
exponents against a bound; the oracle for them tests every monomial in
canonical order.
"""

from __future__ import annotations

from orthodontia.polynomial import (
    DivisionRemainderError,
    Monomial,
    Polynomial,
    monomial_divides,
)


def exact_divide_linear(f: Polynomial, j: int) -> Polynomial:
    """Divide f exactly by (x_j - x_{j+1}).

    Runs synthetic division of f, viewed as a polynomial in x_j over the
    ring generated by the remaining variables.  A nonzero remainder means
    the caller violated the divisibility precondition and raises
    :class:`DivisionRemainderError`.
    """
    if not 1 <= j <= f.n - 1:
        raise ValueError(f"division index {j} out of range for n={f.n}")
    if f.is_zero:
        return f
    a = j - 1
    layers: dict[int, dict[Monomial, int]] = {}
    for exps, c in f.terms.items():
        key = exps[:a] + (0,) + exps[a + 1:]
        layers.setdefault(exps[a], {})[key] = c
    top = max(layers)
    if top == 0:
        raise DivisionRemainderError(f"{f} is not divisible by x{j} - x{j + 1}")
    out: dict[Monomial, int] = {}

    def emit(layer: dict[Monomial, int], deg: int) -> None:
        for key, c in layer.items():
            out[key[:a] + (deg,) + key[a + 1:]] = c

    current = dict(layers.get(top, {}))
    emit(current, top - 1)
    for d in range(top - 1, -1, -1):
        shifted: dict[Monomial, int] = {}
        for key, c in current.items():
            k2 = key[: a + 1] + (key[a + 1] + 1,) + key[a + 2:]
            shifted[k2] = c
        current = shifted
        for key, c in layers.get(d, {}).items():
            s = current.get(key, 0) + c
            if s:
                current[key] = s
            else:
                current.pop(key, None)
        if d > 0:
            emit(current, d - 1)
    if current:
        raise DivisionRemainderError(f"nonzero remainder dividing by x{j} - x{j + 1}")
    return Polynomial(f.n, out)


def _variable_monomial(n: int, *indices: int) -> Monomial:
    return tuple(1 if i + 1 in indices else 0 for i in range(n))


def divided_difference_kernel(j: int, f: Polynomial) -> Polynomial:
    """(f - s_j.f) / (x_j - x_{j+1}) by exact division."""
    return exact_divide_linear(f - f.swap_variables(j), j)


def demazure_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j f)."""
    return divided_difference_kernel(j, f.mul_monomial(_variable_monomial(f.n, j)))


def isobaric_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j((1 - x_{j+1}) f)."""
    return divided_difference_kernel(j, f - f.mul_monomial(_variable_monomial(f.n, j + 1)))


def demazure_lascoux_kernel(j: int, f: Polynomial) -> Polynomial:
    """d_j(x_j (1 - x_{j+1}) f)."""
    xj = f.mul_monomial(_variable_monomial(f.n, j))
    return divided_difference_kernel(j, xj - xj.mul_monomial(_variable_monomial(f.n, j + 1)))


def inversions_by_enumeration(word: tuple[int, ...]) -> int:
    """Brute-force inversion count straight from the definition."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def support_witness_scan(f: Polynomial, bound: Monomial) -> Monomial | None:
    """The first monomial of f in canonical order not dividing x^bound, by testing each."""
    for exps in f.monomials():
        if not monomial_divides(exps, bound):
            return exps
    return None
