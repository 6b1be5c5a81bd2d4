import importlib

import numpy as np
import pytest

from unruh_teleport import DomainError, verify

VERIFY_MODULE = importlib.import_module("unruh_teleport.verify")


def test_single_trial_contains_all_sections():
    report = verify(trials=1, seed=123)
    assert report.passed
    text = report.render()
    for marker in ("[1]", "[2]", "[3]", "[4]", "[5]", "[6]"):
        assert marker in text
    assert text.endswith("\n")


def test_render_deterministic():
    a = verify(trials=10, seed=4).render()
    b = verify(trials=10, seed=4).render()
    assert a == b


def test_different_seeds_differ_only_in_numbers():
    a = verify(trials=5, seed=1)
    b = verify(trials=5, seed=2)
    assert [c.name for c in a.checks] == [c.name for c in b.checks]
    assert a.passed and b.passed


def test_informational_check_does_not_gate():
    report = verify(trials=20, seed=7)
    info = [c for c in report.checks if c.tolerance is None]
    assert len(info) == 1
    # The swapped-b7 gap is large for generic channels yet never fails the run.
    assert info[0].max_error > 1e-3
    assert report.passed


def test_trials_validated():
    with pytest.raises(DomainError):
        verify(trials=0)


def test_trials_bounded_before_any_draw():
    # Rejected up front: the batched checks would hold arrays of this size.
    with pytest.raises(DomainError, match="trials"):
        verify(trials=2**20 + 1)


def test_one_pass_evaluates_each_per_draw_quantity_once(monkeypatch):
    # Counted at the names verify calls: the channel and the inertial channel
    # are the two accelerate calls per draw; every other form and oracle runs once.
    calls = dict.fromkeys(
        ("accelerate", "teleport_analytic", "bogoliubov_oracle", "teleport_circuit_oracle",
         "teleport_closed_form"),
        0,
    )

    def counted(name):
        original = getattr(VERIFY_MODULE, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(VERIFY_MODULE, name, counted(name))
    assert verify(trials=7, seed=3).passed
    assert calls == {
        "accelerate": 14,
        "teleport_analytic": 7,
        "bogoliubov_oracle": 7,
        "teleport_circuit_oracle": 7,
        "teleport_closed_form": 7,
    }


def test_nan_error_fails_the_check(monkeypatch):
    # A running maximum must not drop a NaN error: max(worst, nan) keeps worst.
    original = VERIFY_MODULE.bogoliubov_oracle
    draws = []

    def nan_on_second_draw(d, u):
        draws.append(d)
        m = original(d, u)
        return np.full_like(m, np.nan) if len(draws) == 2 else m

    monkeypatch.setattr(VERIFY_MODULE, "bogoliubov_oracle", nan_on_second_draw)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    assert report.passed is False
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name) for c in failed] == [
        (1, "max elementwise difference"), (2, "max elementwise difference")
    ]
    assert "result: FAIL" in report.render()
