import hashlib
import importlib
import math

import numpy as np
import pytest

from unruh_teleport import ConsistencyError, DomainError, verify
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


def _nan_at_draw_two(monkeypatch, name, hit):
    # verify's own name for a kernel function returns NaN at draw 2 on the calls
    # that ``hit`` picks from the arguments after the point mapping.
    original = getattr(VERIFY_MODULE, name)

    def nan_at_two(p, *args):
        out = original(p, *args)
        if hit(*args):
            out = out.copy()
            out[2] = np.nan
        return out

    monkeypatch.setattr(VERIFY_MODULE, name, nan_at_two)


def test_derivative_check_names_its_worst_draw(monkeypatch):
    _nan_at_draw_two(monkeypatch, "_partial", lambda param, mode, method: method == "fd")
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name, c.draw[0]) for c in failed] == [(4, "max relative difference", 2)]
    assert math.isnan(failed[0].max_error)
    assert "      worst draw: 2 theta=" in report.render()


def test_bloch_norm_check_names_its_worst_draw(monkeypatch):
    _nan_at_draw_two(monkeypatch, "_bloch", lambda mode: mode == "as-published")
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.name, c.draw[0]) for c in failed] == [("as-published bloch norm <= 1/4", 2)]
    assert report.render().count("worst draw: 2 theta=") == 1


def test_kernel_failure_names_no_draw(monkeypatch):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify(trials=3, seed=1)
    infinite = [c for c in report.checks if c.max_error == math.inf]
    assert [c.name for c in infinite] == [
        "fisher finite and non-negative",
        "fisher invariant under s_y reflection",
        "anchor: weight information = cos(r)^2",
        "mode scaling 1/16 at r=0",
        "continuity near the pure shell",
    ]
    assert all(c.draw is None for c in infinite)


@pytest.mark.parametrize("checks", ["drop-last", "add-one", "repeat-one"])
def test_checks_table_matches_the_producers(monkeypatch, checks):
    table = VERIFY_MODULE.CHECKS
    changed = {
        "drop-last": table[:-1],
        "add-one": (*table, (5, "not produced", 1e-12)),
        "repeat-one": (*table, table[0]),
    }[checks]
    monkeypatch.setattr(VERIFY_MODULE, "CHECKS", changed)
    with pytest.raises(ConsistencyError, match="produced and listed once"):
        verify(trials=2, seed=1)


@pytest.mark.parametrize(
    "trials,seed", [(2.5, 1), (3, 1.5), (True, 1), (3, False), ("3", 1), (3, None)]
)
def test_trials_and_seed_must_be_integers(trials, seed):
    with pytest.raises(DomainError, match=r"(trials|seed) must be an integer, got "):
        verify(trials, seed)


def test_numpy_integers_are_accepted():
    report = verify(np.int64(2), np.int32(5))
    assert report.passed
    assert report.render().startswith("verification report: trials=2 seed=5\n")


# SHA-256 of `verify` reports, pinned at the per-draw rejection sampler that
# sample_draws replaced: the draws, and so the rng stream, stay the same.
REPORT_SHA256 = {
    (1, 42): "b06127f93e82c1e4ae658d5d7096da2710d6efe38436cff0a47fe32b0cf8c164",
    (1, 7): "4b72109b7323bc17a9ab6cf39a3dc6d445f830aa087cf67797b79f3d715dfefd",
    (1, 123): "e8205898efa05f289bceddd5fa9c91bdc8090246720bc3611e0a955fedeb6cf7",
    (1, 1): "5cb07fec32a959e1f481c9cdbb06c29c665360ac67b647c57a8e53b2634101b1",
    (1, 2): "2e2be8ef2f04e925b954b14d9075f8e96db018d6c311db0cf428ae9f40178e38",
    (7, 42): "be4ad5b3177aa33ef94d6a148f2db99af567010318805fa9aa02b22fb757c2b8",
    (7, 7): "26351d7a047e0e9f2290d3b5f2d9febf0bc0a3e941d891acb5d3a47ea2e7100f",
    (7, 123): "fe2ac210ee148edae4e229ccdcc79efbb101a5c27ff4e6aff10fbeae8ddae6e5",
    (7, 1): "3119d7f3a2f4117c879202590dcae102c379ad1b3805cd330f73507fff597db8",
    (7, 2): "52cd2337f9bc5d581445250b1a6669ac68f406791260d7361d240e001a2437cf",
    (1000, 42): "d0b4d73d75cb435800dd5e6c64880786a4d7a7d71c624f36dda7a2e3bb46e465",
    (1000, 7): "42e7993434842ab40b9f2805be7a954bb56fa0a8a812ac4819d168e13b81fcb2",
    (1000, 123): "0d3521aadce27ab5e523a8058d800772e0660af2ec687c36b90df986e1f4ea6e",
    (1000, 1): "b77c86934b6dcc23909dd14af9866d970d2efa91947fbbdb64f2d4a6848c2c21",
    (1000, 2): "592f142345781f8fd92266961e5c23e050f2d94ea2e092e12a2107dea0cc797c",
}


@pytest.mark.parametrize("trials,seed", list(REPORT_SHA256))
def test_reports_are_pinned(trials, seed, capsys):
    assert main(["verify", "--trials", str(trials), "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[trials, seed]
