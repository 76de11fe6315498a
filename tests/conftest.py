from __future__ import annotations

import random

import pytest

from orthodontia.polynomial import Polynomial


def random_polynomial(
    rng: random.Random,
    n: int,
    max_terms: int = 6,
    max_exponent: int = 3,
    max_coeff: int = 4,
) -> Polynomial:
    coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c]
    return Polynomial(n, [
        (tuple(rng.randint(0, max_exponent) for _ in range(n)), rng.choice(coeffs))
        for _ in range(rng.randint(1, max_terms))
    ])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
