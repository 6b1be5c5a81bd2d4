import importlib

import numpy as np
import pytest

from unruh_teleport import ConsistencyError
from unruh_teleport.channels import EIGENVALUE_TOL
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
        _assert_bit_identical(sample_draws(seed, n, 64), expected)


@pytest.mark.parametrize("seed", [42, 7, 123, 1, 2])
def test_verify_sized_draws_equal_the_scalar_loop(seed):
    _assert_bit_identical(sample_draws(seed, 1000, 64), _scalar_draws(seed, 1000))


def test_a_short_buffer_regrows_to_the_same_draws(monkeypatch):
    # The closed form runs once per buffer, over its candidate slots.
    buffers = []
    original = SAMPLING._bell_eigenvalues

    def counted(*c):
        buffers.append(len(c[0]))
        return original(*c)

    monkeypatch.setattr(SAMPLING, "SLOTS_PER_DRAW", 1)
    monkeypatch.setattr(SAMPLING, "_bell_eigenvalues", counted)
    _assert_bit_identical(sample_draws(5, 40, 3), _scalar_draws(5, 40))
    assert buffers[:3] == [40, 80, 160]


def test_block_size_does_not_change_the_draws():
    whole = sample_draws(11, 50, 1000)
    for block in (1, 7, 64):
        _assert_bit_identical(sample_draws(11, 50, block), whole)


def test_every_visited_candidate_is_confirmed_in_blocks(monkeypatch):
    # As many candidates go through eigvalsh as the scalar loop checks with
    # validate_physical, at most a block at a time.
    confirmed, checked = [], []
    confirm, check = SAMPLING._min_eigenvalues, SAMPLING.validate_physical
    monkeypatch.setattr(
        SAMPLING, "_min_eigenvalues", lambda m: confirmed.append(len(m)) or confirm(m)
    )
    monkeypatch.setattr(SAMPLING, "validate_physical", lambda d: checked.append(d) or check(d))
    sample_draws(3, 200, 16)
    _scalar_draws(3, 200)
    assert sum(confirmed) == len(checked) > 200
    assert max(confirmed) == 16


def test_a_flipped_decision_is_caught_by_eigvalsh(monkeypatch):
    # The first dyadic candidate (slot 0) is visited by every seed.
    # Rejecting it when physical, or accepting it when not, must raise.
    original = SAMPLING._bell_eigenvalues
    flips = []

    def flipped(*c):
        eigenvalues = original(*c)
        flips.append(bool(eigenvalues[0].min() >= -EIGENVALUE_TOL))
        eigenvalues[0] = -1.0 if flips[-1] else 0.25
        return eigenvalues

    monkeypatch.setattr(SAMPLING, "_bell_eigenvalues", flipped)
    for seed in range(12):
        with pytest.raises(ConsistencyError, match="eigvalsh"):
            sample_draws(seed, 3, 64)
    assert set(flips) == {True, False}
