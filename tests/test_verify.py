import importlib
import math

import numpy as np
import pytest

from unruh_teleport import DomainError, verify
from unruh_teleport.cli import main
from unruh_teleport.sampling import sample_dyadic, sample_input, sample_unruh
from unruh_teleport.verify import VerifyReport

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


# The broadcasting forms verify runs over each block of draws, at verify's names.
BLOCK_FORMS = (
    "_accelerate", "_accelerated_density", "_bogoliubov_oracle", "_bogoliubov_isometry",
    "_swapped_b7", "_teleport_analytic", "_teleport_circuit_oracle", "_branch_entries",
)


def _count_block_forms(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(BLOCK_FORMS, 0)

    def counted(name):
        original = getattr(VERIFY_MODULE, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(VERIFY_MODULE, name, counted(name))
    return calls


def test_one_pass_evaluates_each_per_draw_quantity_once(monkeypatch):
    # Each oracle and form runs once per block of draws, so once for 7 draws
    # (the inertial channel rides in the same _accelerate call as a stack of two).
    calls = _count_block_forms(monkeypatch)
    assert verify(trials=7, seed=3).passed
    assert calls == dict.fromkeys(BLOCK_FORMS, 1)


def test_each_form_runs_once_per_block(monkeypatch):
    calls = _count_block_forms(monkeypatch)
    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 3)
    assert verify(trials=7, seed=3).passed
    assert calls == dict.fromkeys(BLOCK_FORMS, 3)


def test_nan_error_fails_the_check(monkeypatch):
    # A running maximum must not drop a NaN error: max(worst, nan) keeps worst.
    original = VERIFY_MODULE._bogoliubov_oracle

    def nan_at_draw_one(*args):
        m = original(*args)
        m[1] = np.nan
        return m

    monkeypatch.setattr(VERIFY_MODULE, "_bogoliubov_oracle", nan_at_draw_one)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    assert report.passed is False
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name) for c in failed] == [
        (1, "max elementwise difference"), (2, "max elementwise difference")
    ]
    text = report.render()
    assert "result: FAIL" in text
    assert text.count("worst draw: 1 ") == 2


def test_check_sequence_is_pinned():
    expected = [
        (1, "max elementwise difference", 1e-12),
        (2, "max elementwise difference", 1e-12),
        (3, "max elementwise difference", 1e-12),
        (4, "max relative difference", 1e-6),
        (5, "preset states hermitian", 1e-12),
        (5, "preset states unit trace", 1e-12),
        (5, "preset states positive", 1e-12),
        (5, "dyadic grid eigenvalue sum", 1e-12),
        (5, "accelerated channel unit trace", 1e-12),
        (5, "accelerated channel hermitian", 1e-12),
        (5, "accelerated channel positive", 1e-12),
        (5, "identity channel at r=0 wsma", 1e-12),
        (5, "isometry columns orthonormal", 1e-12),
        (5, "branch probability equals 1/4", 1e-12),
        (5, "branch state hermitian", 1e-12),
        (5, "branch state positive", 1e-12),
        (5, "normalized bloch norm <= 1", 1e-12),
        (5, "as-published bloch norm <= 1/4", 1e-12),
        (5, "fisher finite and non-negative", 1e-9),
        (5, "fisher invariant under s_y reflection", 1e-15),
        (5, "anchor: weight information = cos(r)^2", 1e-9),
        (5, "mode scaling 1/16 at r=0", 1e-9),
        (5, "continuity near the pure shell", 1e-3),
        (6, "hermiticity gap |b7 - conj(b6)|", None),
    ]
    report = verify(trials=3, seed=1)
    assert [(c.section, c.name, c.tolerance) for c in report.checks] == expected
    assert report.render().endswith("result: PASS (23 gated checks)\n")


def test_block_size_does_not_change_the_report(monkeypatch):
    whole = verify(trials=7, seed=3).render()
    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 3)
    assert verify(trials=7, seed=3).render() == whole


def test_worst_draw_names_the_draw_in_a_later_block(monkeypatch):
    # Blocks of 2 over 5 draws: the NaN at draw 3 is index 1 of the second block.
    original = VERIFY_MODULE._bogoliubov_oracle
    blocks = []

    def nan_in_second_block(*args):
        m = original(*args)
        blocks.append(len(m))
        if len(blocks) == 2:
            m[1] = np.nan
        return m

    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 2)
    monkeypatch.setattr(VERIFY_MODULE, "_bogoliubov_oracle", nan_in_second_block)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    assert blocks == [2, 2, 1]
    first = report.checks[0]
    assert first.passed is False
    rng = np.random.default_rng(1)
    draws = [(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(5)]
    state, d, u = draws[3]
    assert first.draw == (3, (*vars(state).items(), *vars(d).items(), *vars(u).items()))
    assert len({first}) == 1  # a Check stays hashable
    assert "      worst draw: 3 theta=" in report.render()


def test_pass_report_has_no_worst_draw_line():
    assert "worst draw" not in verify(trials=20, seed=7).render()


def _nan_off_diagonal(monkeypatch):
    # The Fisher kernel's branch entries get a NaN off-diagonal; the oracle
    # sections use the teleport module's own name and stay finite.
    fisher_module = importlib.import_module("unruh_teleport.fisher")
    original = fisher_module._branch_entries

    def nan_entries(**p):
        r00, r01, r10, r11 = original(**p)
        return r00, r01 * np.nan, r10, r11

    monkeypatch.setattr(fisher_module, "_branch_entries", nan_entries)


def test_non_finite_fisher_value_fails_its_checks(monkeypatch):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify(trials=3, seed=1)
    assert isinstance(report, VerifyReport)
    assert report.passed is False
    failed = {c.name: c.max_error for c in report.checks if not c.passed}
    for name in (
        "fisher finite and non-negative",
        "fisher invariant under s_y reflection",
        "anchor: weight information = cos(r)^2",
        "mode scaling 1/16 at r=0",
        "continuity near the pure shell",
    ):
        assert failed[name] == math.inf
    assert "result: FAIL" in report.render()


def test_non_finite_fisher_value_report_from_the_cli(monkeypatch, capsys):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("verification report: trials=3 seed=1\n")
    assert "[6] swapped-b7 variant (informational)" in out
    assert out.endswith("result: FAIL (23 gated checks)\n")
