import numpy as np
import pytest

from unruh_teleport.channels import EIGENVALUE_TOL, CorrelationDyadic, _bell_eigenvalues
from unruh_teleport.errors import DomainError
from unruh_teleport.teleport import InputState
from unruh_teleport.unruh import UnruhParams
from unruh_teleport.verify import sample_draws

LAW_DRAWS = 200_000


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 123, 2**31 - 1])
def test_short_draws_are_the_first_rows_of_long_draws(seed):
    # Draw i reads only row i of the generator's doubles.
    long = sample_draws(seed, 1000)
    for k in (1, 2, 64):
        short = sample_draws(seed, k)
        assert list(short) == list(long)
        for key, column in long.items():
            assert short[key].dtype == column.dtype, key
            assert short[key].tobytes() == column[:k].tobytes(), key


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
def test_seeds_the_stream_would_misread_are_refused(seed):
    # random.Random seeds -1 as 1 and 2.5 by its hash; the sampler takes integers >= 0 only.
    with pytest.raises(DomainError, match="seed must"):
        sample_draws(seed, 2)


@pytest.fixture(scope="module")
def law_draws():
    return sample_draws(2024, LAW_DRAWS)


def test_every_draw_is_a_physical_channel(law_draws):
    eigenvalues = _bell_eigenvalues(law_draws["c11"], law_draws["c22"], law_draws["c33"])
    # The acceptance rule of validate_physical.
    assert np.all(eigenvalues.min(axis=-1) >= -EIGENVALUE_TOL)
    assert np.max(np.abs(eigenvalues.sum(axis=-1) - 1.0)) <= 1e-15


def test_every_draw_is_a_value_the_types_accept(law_draws):
    # The value types own the domain and weight-norm rules; the sampler restates
    # none of them. Every 40th draw, 5,000 in all, as the types' scalars.
    for i in range(0, LAW_DRAWS, 40):
        draw = {key: column[i].item() for key, column in law_draws.items()}
        InputState(draw["theta"], draw["phi"])
        CorrelationDyadic(draw["c11"], draw["c22"], draw["c33"])
        UnruhParams(draw["r"], draw["qr"], draw["ql"])


def test_dyadic_moments_are_those_of_the_uniform_tetrahedron(law_draws):
    c = np.stack([law_draws["c11"], law_draws["c22"], law_draws["c33"]])
    # Exact moments of a uniform point of the tetrahedron with the Bell triples
    # as corners: E c = 0, E c^2 = 1/5 and E c11 c22 c33 = -1/15.
    samples = [*c, *c**2, c.prod(axis=0)]
    exact = [0.0] * 3 + [1.0 / 5.0] * 3 + [-1.0 / 15.0]
    for x, mean in zip(samples, exact):
        sigma = x.std() / np.sqrt(LAW_DRAWS)
        assert abs(x.mean() - mean) <= 5.0 * sigma
