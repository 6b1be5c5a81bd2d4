import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest

from unruh_teleport import (
    CorrelationDyadic, DomainError, InputState, UnruhParams, bloch_partial, bloch_teleported,
    verify,
)
from unruh_teleport.cli import main
from unruh_teleport.verify import VerifyReport, sample_draws

from test_cli import _run_probe

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
    "_teleport_analytic", "_teleport_circuit_oracle", "_branch_bloch",
)


def _per_block_calls(blocks: int) -> dict[str, int]:
    """Calls of each block form over ``blocks`` blocks: two of each channel form
    (the draws' channel and the inertial one), one of every other form."""
    channel_forms = ("_accelerate", "_accelerated_density")
    return {name: blocks * (2 if name in channel_forms else 1) for name in BLOCK_FORMS}


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
    # Each oracle and form runs once per block of draws, so once for 7 draws;
    # the channel forms run once more, for the inertial channel (r = 0, wsma).
    calls = _count_block_forms(monkeypatch)
    assert verify(trials=7, seed=3).passed
    assert calls == _per_block_calls(1)


def test_each_form_runs_once_per_block(monkeypatch):
    calls = _count_block_forms(monkeypatch)
    monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 3)
    assert verify(trials=7, seed=3).passed
    assert calls == _per_block_calls(3)


@pytest.mark.parametrize("trials,blocks", [(1000, 1), (1025, 2)])
def test_the_default_run_checks_its_draws_in_one_block(monkeypatch, trials, blocks):
    # Blocks of 1,024 draws: the default 1,000 trials are one pass of each form, and 1,025
    # are two.
    calls = _count_block_forms(monkeypatch)
    assert verify(trials).passed
    assert calls == _per_block_calls(blocks)


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
        (5, "min channel eigenvalue: closed form vs eigvalsh", 1e-12),
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
    assert report.render().endswith("result: PASS (24 gated checks)\n")


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
    draws = sample_draws(1, 5)
    assert first.draw == (3, tuple((key, column[3].item()) for key, column in draws.items()))
    assert len({first}) == 1  # a Check stays hashable
    assert "      worst draw: 3 theta=" in report.render()


def test_a_mutated_closed_form_fails_the_eigenvalue_check(monkeypatch, capsys):
    # One row of the Bell signs negated: the sampler and validate_physical still
    # agree with each other, so only the eigvalsh check in [5] can tell.
    channels = importlib.import_module("unruh_teleport.channels")
    signs = channels._BELL_SIGNS
    monkeypatch.setattr(channels, "_BELL_SIGNS", (tuple(-s for s in signs[0]), *signs[1:]))
    report = verify(trials=20, seed=7)
    name = "min channel eigenvalue: closed form vs eigvalsh"
    check = next(c for c in report.checks if c.name == name)
    assert not check.passed and check.draw is not None
    lines = report.render().splitlines()
    at = next(i for i, line in enumerate(lines) if name in line)
    assert lines[at].endswith("FAIL")
    assert lines[at + 1].startswith(f"      worst draw: {check.draw[0]} theta=")
    assert main(["verify"]) == 2
    assert "result: FAIL (24 gated checks)" in capsys.readouterr().out


def test_a_circuit_fault_is_reported_not_raised(monkeypatch, capsys):
    # A Hadamard gate scaled by sqrt(2) breaks the circuit's probability bookkeeping; the
    # kernel trusts its input, so [2] fails and names its worst draw.
    teleport = importlib.import_module("unruh_teleport.teleport")
    monkeypatch.setattr(teleport, "_HADAMARD_GATE", teleport._HADAMARD_GATE * math.sqrt(2.0))
    report = verify(50, 1)
    check = next(c for c in report.checks if c.section == 2)
    assert not check.passed and check.draw is not None
    lines = report.render().splitlines()
    at = lines.index("[2] teleported branch: coefficient form vs circuit oracle") + 1
    assert lines[at].endswith("FAIL")
    assert lines[at + 1].startswith(f"      worst draw: {check.draw[0]} theta=")
    assert main(["verify", "--trials", "50", "--seed", "1"]) == 2
    assert capsys.readouterr().out == report.render()


def test_pass_report_has_no_worst_draw_line():
    assert "worst draw" not in verify(trials=20, seed=7).render()


def _nan_off_diagonal(monkeypatch):
    # The Fisher kernel's Bloch vectors get a NaN x component; the oracle
    # sections use the teleport module's own name and stay finite.
    fisher_module = importlib.import_module("unruh_teleport.fisher")
    original = fisher_module._branch_bloch

    def nan_bloch(**p):
        return [(np.nan * x, y, z) for x, y, z in original(**p)]

    monkeypatch.setattr(fisher_module, "_branch_bloch", nan_bloch)


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
        assert not math.isfinite(failed[name])
    assert "result: FAIL" in report.render()


def test_non_finite_fisher_value_report_from_the_cli(monkeypatch, capsys):
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--trials", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("verification report: trials=3 seed=1\n")
    assert "[6] swapped-b7 variant (informational)" in out
    assert out.endswith("result: FAIL (24 gated checks)\n")


def _nan_at_draw_two(vector):
    """The components of ``vector``, over the draws, with a NaN at draw 2."""
    return tuple(np.where(np.arange(len(c)) == 2, np.nan, c) for c in vector)


def test_derivative_check_names_its_worst_draw(monkeypatch):
    # verify's own name for the derivative stage returns NaN at draw 2 in its three central
    # differences, the last vectors it returns, so in both norms.
    vectors = VERIFY_MODULE._vectors

    def nan_in_differences(p, wrt, stepped):
        passes = vectors(p, wrt, stepped)
        return [*passes[:-len(stepped)], *map(_nan_at_draw_two, passes[-len(stepped):])]

    monkeypatch.setattr(VERIFY_MODULE, "_vectors", nan_in_differences)
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.section, c.name, c.draw[0]) for c in failed] == [(4, "max relative difference", 2)]
    assert math.isnan(failed[0].max_error)
    assert "      worst draw: 2 theta=" in report.render()


def test_bloch_norm_check_names_its_worst_draw(monkeypatch):
    # verify's own name for the norm scaling returns NaN at draw 2 in the as-published
    # Bloch vectors, the first of the vectors it scales, and nowhere else.
    scaled = VERIFY_MODULE._scaled

    def nan_in_s(vectors, mode):
        s, *rest = scaled(vectors, mode)
        return [_nan_at_draw_two(s) if mode == "as-published" else s, *rest]

    monkeypatch.setattr(VERIFY_MODULE, "_scaled", nan_in_s)
    report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    # The Fisher check reads the same Bloch pass, so it meets the NaN too: an
    # infinite error at the same draw.
    assert [(c.name, c.draw and c.draw[0]) for c in failed] == [
        ("as-published bloch norm <= 1/4", 2), ("fisher finite and non-negative", 2)]
    assert failed[1].max_error == math.inf
    assert report.render().count("worst draw: 2 theta=") == 2


def test_kernel_failure_names_its_draw(monkeypatch, capsys):
    # The kernel raises nothing, so a per-draw Fisher check names the draw of its
    # non-finite value; the three fixed-input anchors have no draw to name.
    _nan_off_diagonal(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify(trials=3, seed=1)
    checks = {c.name: c for c in report.checks if c.section == 5}
    for name in ("fisher finite and non-negative", "fisher invariant under s_y reflection"):
        assert not checks[name].passed and checks[name].draw[0] == 0, name
    for name in ("anchor: weight information = cos(r)^2", "mode scaling 1/16 at r=0",
                 "continuity near the pure shell"):
        assert not checks[name].passed and checks[name].draw is None, name
    assert {c.draw[0] for c in report.checks if not c.passed and c.draw} == {0}
    _assert_fault_report(report, ["verify", "--trials", "3", "--seed", "1"], capsys)


def test_an_infinite_fisher_value_fails_the_finite_check(monkeypatch):
    # +inf is no negative value, so the finite check must count it as an error of inf.
    original = VERIFY_MODULE._fisher_from_bloch

    def inf_at_two(s, ds):
        value, pure = original(s, ds)
        value = value.copy()
        value[2] = np.inf
        return value, pure

    monkeypatch.setattr(VERIFY_MODULE, "_fisher_from_bloch", inf_at_two)
    with np.errstate(invalid="ignore"):
        report = verify(trials=5, seed=1)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.name, c.draw[0]) for c in failed] == [
        ("fisher finite and non-negative", 2), ("fisher invariant under s_y reflection", 2)]
    assert failed[0].max_error == math.inf


def _assert_fault_report(report, argv, capsys):
    """A fault report FAILs, every failed per-draw check names its draw, and the
    command line prints the whole report and exits 2."""
    assert isinstance(report, VerifyReport) and not report.passed
    lines = report.render().splitlines()
    failed = [c for c in report.checks if not c.passed]
    rows = [i for i, line in enumerate(lines) if line.endswith("FAIL")]
    assert len(rows) == len(failed)
    for check, at in zip(failed, rows):
        assert lines[at].startswith(f"    {check.name} ")
        if check.draw is not None:
            assert lines[at + 1].startswith(f"      worst draw: {check.draw[0]} theta=")
    assert sum("worst draw" in line for line in lines) == sum(c.draw is not None for c in failed)
    capsys.readouterr()
    with np.errstate(invalid="ignore"):
        assert main(argv) == 2
    assert capsys.readouterr().out == report.render()


def test_a_vector_past_the_unit_ball_is_a_report(monkeypatch, capsys):
    # Normalized vectors scaled by 1.01 leave the ball: the kernel marks their values NaN,
    # a fault in the package, so not a refusal of input on exit code 1.
    fisher_module = importlib.import_module("unruh_teleport.fisher")
    monkeypatch.setitem(fisher_module._MODE_SCALE, "normalized", 1.01)
    report = verify(50, 1)
    failed = {c.name for c in report.checks if not c.passed}
    assert {"anchor: weight information = cos(r)^2", "continuity near the pure shell"} <= failed
    _assert_fault_report(report, ["verify", "--trials", "50", "--seed", "1"], capsys)


def test_a_non_finite_channel_is_a_report(monkeypatch, capsys):
    # NaN b1 where r > 0.7: the eigenvalue checks see NaN, never the eigensolver.
    original = VERIFY_MODULE._accelerate

    def nan_b1(c11, c22, c33, r, qr, ql):
        b = original(c11, c22, c33, r, qr, ql)
        return (np.where(np.asarray(r) > 0.7, np.nan, b[0]), *b[1:])

    monkeypatch.setattr(VERIFY_MODULE, "_accelerate", nan_b1)
    with np.errstate(invalid="ignore"):
        report = verify(200, 3)
    failed = [c for c in report.checks if not c.passed]
    assert {c.section for c in failed} == {1, 2, 3, 5}
    first = int(np.flatnonzero(sample_draws(3, 200)["r"] > 0.7)[0])
    assert {c.draw[0] for c in failed} == {first}
    assert {"accelerated channel positive", "branch state positive"} <= {c.name for c in failed}
    _assert_fault_report(report, ["verify", "--trials", "200", "--seed", "3"], capsys)


def test_min_eigenvalues_are_nan_for_a_non_finite_matrix():
    # eigvalsh reads np.eye(4) with NaN at (0, 0) as [0, -0, 1, 1], with NaN at (1, 2) as
    # [1, 1, 1, 1] (it reads the lower triangle only) and with NaN at (2, 1) as
    # [1, nan, nan, 1]: each has a least entry that reads as positive semidefinite.
    linalg = importlib.import_module("unruh_teleport._linalg")
    density = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    faulty = np.array([np.eye(4, dtype=complex)] * 3)
    faulty[0, 0, 0] = faulty[1, 1, 2] = faulty[2, 2, 1] = np.nan
    least = linalg._min_eigenvalues(np.concatenate([density[None], faulty]))
    assert least[0] == 0.1 and np.isnan(least[1:]).all()
    assert np.isnan(linalg._eigenvalues(faulty)).all()


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


# SHA-256 of `verify` reports. The draws are those of sample_draws: draw i reads the i-th
# nine words of random.Random(seed).randbytes, and its Bell weights place the dyadic.
REPORT_SHA256 = {
    (1, 42): "70ae32f759b966041dbb92e3e990df3e56edb69cff7e1a1d5aed3d0630e60ea7",
    (1, 7): "9f668078fe4952fd06e7cdcc6edbdd79ad8fa518308c3928fe2fc1539074bc57",
    (1, 123): "73827a126626e89133d17f664ef7bf32f0f0bc823d7253e9835b9f1cbd9b079a",
    (1, 1): "7201bc329497f2c582675ba1411204174d06ab2cb973f3eb5d03cde48d2fbf32",
    (1, 2): "928bc452f5e504462b52cde6ebbf098779099628226f6a3147692ccc0d69aef2",
    (7, 42): "3c60167f41ce354e33f8497bcb3ebb8cf50c4bfbf06df868e15380146c4aa27a",
    (7, 7): "eedbe38109af1cd44176c5878d647387b1adc16fa7f9c9d8e993293c99be1566",
    (7, 123): "edc863a588c879b38fa96b7657212a883a261c55d9ac51792c79670cc750c0cb",
    (7, 1): "8bffab8c808faf6e05f0bcbaefba80c9bb443d39e7116dac5291d309a33ccb1e",
    (7, 2): "9f98930e25425919586656c119bd72f5ffcb3af5699298a36399c3377b59edd9",
    (1000, 42): "bc0e04c84ecf793f2123b0aaff30b80de069ef06267c659f5eee3aaae7841ac7",
    (1000, 7): "5e2710e4d599e16b9cc97399a454bc81aedb81b537c2ee15908330f463df73b2",
    (1000, 123): "70823480ff20ebe25e8d9f40dd2bb68f9aa6135b86cdaa04e4cd8ffafc456ac2",
    (1000, 1): "4e6ce241fc36644e75339b4870ee66e16014982d57e72950a3ebe1d756ee267f",
    (1000, 2): "0113e77828f6ab28f4c48a57d62c26847d402b86eceeb31b8268c6b86f66dd38",
}


@pytest.mark.parametrize("trials,seed", list(REPORT_SHA256))
def test_reports_are_pinned(trials, seed, capsys):
    assert main(["verify", "--trials", str(trials), "--seed", str(seed)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[trials, seed]


def test_report_defaults_are_1000_trials_seed_42(capsys):
    assert main(["verify"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_SHA256[1000, 42]


def test_block_size_up_to_one_block_keeps_the_pinned_report(monkeypatch):
    # Blocks of 64, one block of exactly the 1000 draws, the default 1,024 and 8,192.
    for block in (64, 1000, VERIFY_MODULE.BLOCK, 8192):
        monkeypatch.setattr(VERIFY_MODULE, "BLOCK", block)
        text = verify(1000, 42).render()
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[1000, 42], block


def _faults_at(monkeypatch, seed, trials, faults):
    """Patch verify's isometry oracle and central differences: at each draw i of ``faults``,
    found by its r among the draws of (seed, trials), every entry of the oracle's matrix and of
    the three differences is ``faults[i]``."""
    r_of = sample_draws(seed, trials)["r"]
    oracle, vectors = VERIFY_MODULE._bogoliubov_oracle, VERIFY_MODULE._vectors

    def faulty_oracle(c11, c22, c33, r, qr, ql):
        m = oracle(c11, c22, c33, r, qr, ql)
        for i, value in faults.items():
            m[r == r_of[i]] = value
        return m

    def faulty_vectors(p, wrt, stepped):
        passes = vectors(p, wrt, stepped)
        for i, value in faults.items():
            at = p["r"] == r_of[i]
            passes[-3:] = [tuple(np.where(at, value, c) for c in v) for v in passes[-3:]]
        return passes

    monkeypatch.setattr(VERIFY_MODULE, "_bogoliubov_oracle", faulty_oracle)
    monkeypatch.setattr(VERIFY_MODULE, "_vectors", faulty_vectors)


# Faults at draws 20 and 150, in blocks 0 and 2 when those hold 64 draws, and the draw
# that sections [1] and [4] (one check each) then name: the first NaN, else the first largest
# error. 1e20 less any entry it meets is 1e20, so the two draws tie exactly in [1], not in [4].
FOLD_CASES = {
    "largest, then NaN": ({20: 1e20, 150: np.nan}, {1: 150, 4: 150}),
    "NaN, then largest": ({20: np.nan, 150: 1e20}, {1: 20, 4: 20}),
    "equal errors": ({20: 1e20, 150: 1e20}, {1: 20}),
}


@pytest.mark.parametrize("faults,named", FOLD_CASES.values(), ids=list(FOLD_CASES))
def test_the_blockwise_fold_names_the_draw_of_one_block(monkeypatch, faults, named):
    # Blocks of 64 give the report of one block of all 200 draws.
    _faults_at(monkeypatch, 5, 200, faults)
    with np.errstate(invalid="ignore"):
        whole = verify(200, 5)
        monkeypatch.setattr(VERIFY_MODULE, "BLOCK", 64)
        blocked = verify(200, 5)
    assert {c.section: c.draw[0] for c in whole.checks if c.section in named} == named
    assert [(c.name, c.draw) for c in blocked.checks] == [(c.name, c.draw) for c in whole.checks]
    assert blocked.render() == whole.render()


def test_verify_never_loads_numpy_random():
    # The draws come from Python's own generator, so numpy.random is never imported.
    probe = "import sys; from unruh_teleport import verify; verify(10, 1); print(*sys.modules)"
    modules = _run_probe(probe).split()
    assert "numpy.linalg" in modules and "numpy.random" not in modules


def test_kernel_vectors_equal_the_public_functions(monkeypatch):
    # The as-published vectors verify's kernel checks read, captured at verify's own name
    # for the norm scaling, are the public functions' at each draw, bit for bit: s, and the
    # analytic and fd partials in every estimand.
    scaled, seen = VERIFY_MODULE._scaled, {}

    def recording_scaled(vectors, mode):
        seen[mode] = scaled(vectors, mode)
        return seen[mode]

    monkeypatch.setattr(VERIFY_MODULE, "_scaled", recording_scaled)
    trials, params = 40, VERIFY_MODULE.PARAM_NAMES
    assert verify(trials, 9).passed
    s, *partials = seen["as-published"]
    analytic, fd = partials[:len(params)], partials[len(params):]
    draws = sample_draws(9, trials)
    for i in range(trials):
        p = {key: column[i].item() for key, column in draws.items()}
        state = InputState(p["theta"], p["phi"])
        d = CorrelationDyadic(p["c11"], p["c22"], p["c33"])
        u = UnruhParams(p["r"], p["qr"], p["ql"])

        def at_draw(vector):
            return np.array([np.broadcast_to(c, trials)[i] for c in vector]).tobytes()

        assert bloch_teleported(state, d, u, "as-published").tobytes() == at_draw(s), i
        for param, partial, difference in zip(params, analytic, fd):
            for method, vector in (("analytic", partial), ("fd", difference)):
                got = bloch_partial(state, d, u, param, mode="as-published", method=method)
                assert got.tobytes() == at_draw(vector), (i, param, method)


def test_kernel_passes_are_pinned(monkeypatch):
    # verify's own names for the kernel functions record the arguments after the first
    # of each call; the closed form behind them records the partials of each pass that
    # verify's _vectors made.
    calls = {"_vectors": [], "_scaled": [], "_fisher": [], "_fisher_from_bloch": []}
    within, passes = [], []

    def counted(name):
        original = getattr(VERIFY_MODULE, name)

        def wrapper(first, *args, **kwargs):
            calls[name].append(args)
            within.append(name)
            try:
                return original(first, *args, **kwargs)
            finally:
                within.pop()

        return wrapper

    fisher_module = importlib.import_module("unruh_teleport.fisher")
    branch_bloch = fisher_module._branch_bloch

    def counted_pass(**p):
        if within == ["_vectors"]:
            passes.append(p.get("wrt", ()))
        return branch_bloch(**p)

    for name in calls:
        monkeypatch.setattr(VERIFY_MODULE, name, counted(name))
    monkeypatch.setattr(fisher_module, "_branch_bloch", counted_pass)
    assert verify(50, 1).passed
    params, norms = VERIFY_MODULE.PARAM_NAMES, VERIFY_MODULE.NORM_NAMES
    combos = sorted(itertools.product(params, norms))
    # One shared pass: 7 evaluations of the closed form, one for s and its three
    # analytic partials and an s-only one at each of +h and -h per estimand.
    assert calls["_vectors"] == [(params, params)]
    assert sorted(passes) == [()] * 6 + [params]
    # Each norm scales what that pass gave once: s, the partials and the central differences.
    assert sorted(calls["_scaled"]) == [("as-published",), ("normalized",)]
    # The anchors: one Fisher pass per (estimand, norm) for both Bell presets in the mode
    # scaling check, and the weight anchor's and the continuity check's, both in theta.
    theta_normalized = [("theta", "normalized")] * 2
    assert sorted(args[:2] for args in calls["_fisher"]) == sorted(combos + theta_normalized)
    # The finite check's six Fisher values come from the Bloch passes and analytic partials
    # above, and the reflection check reads the normalized theta one of them, adding one pass.
    assert len(calls["_fisher_from_bloch"]) == 7


def test_each_check_is_one_entry_of_one_producer():
    # The fold merges by entry, so an entry two producers stated would read as one check.
    draws = sample_draws(3, 5)
    producers = [VERIFY_MODULE._fixed_errors(), VERIFY_MODULE._draw_errors(draws),
                 VERIFY_MODULE._kernel_errors(draws), VERIFY_MODULE._anchor_errors()]
    for a, b in itertools.combinations(producers, 2):
        assert not a.keys() & b.keys()
    entries = sorted(itertools.chain(*producers), key=lambda entry: entry[0])
    checks = verify(5, 3).checks
    assert [(c.section, c.name, c.tolerance) for c in checks] == entries
    assert len(checks) == 25 and sum(c.tolerance is None for c in checks) == 1

