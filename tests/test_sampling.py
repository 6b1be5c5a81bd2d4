import importlib

import numpy as np
import pytest

from unruh_teleport.fisher import _point
from unruh_teleport.sampling import sample_draws, sample_dyadic, sample_input, sample_unruh

SAMPLING = importlib.import_module("unruh_teleport.sampling")


def _scalar_draws(seed: int, n: int) -> dict[str, np.ndarray]:
    """The reference: n draws of the scalar samplers in turn, one array per key."""
    rng = np.random.default_rng(seed)
    points = [_point(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(n)]
    return {key: np.array([p[key] for p in points]) for key in points[0]}


def _assert_bit_identical(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for key, column in expected.items():
        assert got[key].dtype == column.dtype, key
        assert np.array_equal(got[key].view(np.uint8), column.view(np.uint8)), key


@pytest.mark.parametrize("seed", range(50))
def test_short_draws_equal_the_scalar_loop(seed):
    # The scalar loop's first n draws do not depend on how many follow, so one
    # reference of 64 draws covers every n up to 64.
    reference = _scalar_draws(seed, 64)
    for n in (1, 2, 3, 64):
        expected = {key: column[:n] for key, column in reference.items()}
        _assert_bit_identical(sample_draws(seed, n), expected)


@pytest.mark.parametrize("seed", [42, 7, 123, 1, 2])
def test_verify_sized_draws_equal_the_scalar_loop(seed):
    _assert_bit_identical(sample_draws(seed, 1000), _scalar_draws(seed, 1000))


def test_a_short_buffer_regrows_to_the_same_draws(monkeypatch):
    # The closed form runs once per buffer, over its candidate slots.
    buffers = []
    original = SAMPLING._bell_eigenvalues

    def counted(*c):
        buffers.append(len(c[0]))
        return original(*c)

    monkeypatch.setattr(SAMPLING, "SLOTS_PER_DRAW", 1)
    monkeypatch.setattr(SAMPLING, "_bell_eigenvalues", counted)
    _assert_bit_identical(sample_draws(5, 40), _scalar_draws(5, 40))
    assert buffers[:3] == [40, 80, 160]
