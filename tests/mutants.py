"""Mutation probe: the tests run against the package with one small change at a time.

Run from anywhere in a checkout (CI runs it as its own job); pytest does not collect it:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 5 7    # the mutants at these indices

Each mutant is (file in src/unruh_teleport, old text, new text, the test that kills it), and
its old text must occur exactly once in that file; every mutant is checked before any runs.
For each one, ``src/``, ``tests/`` and ``pyproject.toml`` are copied into a fresh temporary
directory outside the checkout, and the mutant is applied there. ``python -m pytest -q -x``
runs the named test on the copy first. Only if it does not fail does Tier-1 run on the copy,
leaving out ``tests/test_mutants.py``: that Tier-1 check of this list runs ``check_mutants``
and so fails on every mutated copy. A mutant is KILLED only when a test fails. One line per
mutant gives KILLED or SURVIVED, the seconds taken and, for a killed mutant, the first
failing test: "KILLED by X" where the named test failed, and "KILLED by X (named test
passed)" where Tier-1 found it instead, so the entry's name is stale. A surviving mutant is
a change that no test sees, and the probe then exits 1. Only the standard library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "unruh_teleport")

MUTANTS = [
    # Named tolerances and limits at their edges.
    ("fisher.py", "PURE_BRANCH_EPS = 1e-9", "PURE_BRANCH_EPS = 1e-10",
     "tests/test_fisher.py::TestFisherFromBloch::test_gap_below_the_pure_cutoff_takes_the_pure_branch"),
    ("fisher.py", "BALL_SLACK = 1e-12", "BALL_SLACK = 1e-9",
     "tests/test_fisher.py::TestFisherFromBloch::test_vector_just_past_the_rounding_slack_rejected"),
    ("channels.py", "EIGENVALUE_TOL = 1e-12", "EIGENVALUE_TOL = 1e-9",
     "tests/test_channels.py::TestValidatePhysical::test_least_eigenvalue_past_the_tolerance_is_unphysical"),
    ("teleport.py", "DEGENERATE_PROB = 1e-15", "DEGENERATE_PROB = 1e-3",
     "tests/test_teleport.py::TestDegenerateBranch::test_small_branch_is_normalized"),
    ("teleport.py", "(r00 - r11).real]) + 0.0", "(r00 - r11).real])",
     "tests/test_teleport.py::TestBlochOf::test_zero_component_is_positive_zero"),
    ("unruh.py", "WEIGHT_NORM_TOL = 1e-14", "WEIGHT_NORM_TOL = 1e-13",
     "tests/test_unruh.py::TestUnruhParams::test_weight_norm_edge_is_1e_14[2e-14-False]"),
    ("unruh.py", "CHANNEL_TOL = 1e-12", "CHANNEL_TOL = 1e-9",
     "tests/test_unruh.py::TestChannelValidation::test_coefficients_just_past_the_tolerance_rejected"),
    ("teleport.py", "MAX_FD_STEP = R_MAX / 3.0", "MAX_FD_STEP = R_MAX / 2.0",
     "tests/test_api.py::test_a_refusal_writes_its_range_as_written[fisher.fd_step-high]"),
    ("fisher.py", "MAX_POINTS = 2**20", "MAX_POINTS = 2**21",
     "tests/test_cli.py::TestInputBoundary::test_one_line_error[trials-too-many]"),
    ("verify.py", "EQUIV_TOL = 1e-12", "EQUIV_TOL = 1e-9",
     "tests/test_verify.py::test_check_sequence_is_pinned"),
    ("sweep.py", "_blocks(*grid, 1 << 13)", "_blocks(*grid, 1 << 12)",
     "tests/test_sweep.py::TestRenderContract::test_pure_flags_on_both_sides_of_a_piece_boundary[last-full]"),
    # Refusals at the public boundary.
    ("fisher.py", "    require_physical(d)\n    return p", "    return p",
     "tests/test_fisher.py::TestLibraryBoundary::test_unphysical_channel_is_refused"),
    ("errors.py", "if not isinstance(value, value_type):",
     "if not isinstance(value, (value_type, type(None))):",
     "tests/test_api.py::test_a_point_of_other_types_is_a_domain_error[0-fisher]"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not (isinstance(value, Real) and lo < z.real <= hi):",
     "tests/test_acceptance.py"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not (isinstance(value, Real) and lo <= z.real < hi):",
     "tests/test_acceptance.py"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not lo <= z.real <= hi:",
     "tests/test_api.py::test_wrongly_typed_input_is_a_domain_error[InputState.theta-complex]"),
    ("errors.py", "    if isinstance(value, bool) or not isinstance(value, Complex):",
     "    if not isinstance(value, Complex):",
     "tests/test_api.py::test_wrongly_typed_input_is_a_domain_error[InputState.theta-bool]"),
    ("errors.py", "    return z.real", "    return value",
     "tests/test_api.py::test_each_typed_call_takes_a_valid_value"),
    ("errors.py", "    except OverflowError:\n        raise DomainError(f\"{kind} is an integer too large",
     "    except ZeroDivisionError:\n        raise DomainError(f\"{kind} is an integer too large",
     "tests/test_api.py::test_integers_too_large_for_a_float_are_refused"),
    ("errors.py", "    if not lo <= value <= hi:", "    if not lo < value <= hi:",
     "tests/test_cli.py::TestExitCodes::test_unwritable_destination_is_io_error"),
    ("unruh.py", 'check_real("accel", accel, 0.0)', 'check_real("accel", accel)',
     "tests/test_api.py::test_a_refusal_writes_its_range_as_written[r_from_acceleration.accel]"),
    ("sweep.py", "for column in (self.fisher, self.pure, *points)]",
     "for column in (self.fisher, self.pure)] + list(map(np.asarray, points))",
     "tests/test_sweep.py::TestSweepRows::test_an_axis_of_other_kinds_is_refused_when_built[strings]"),
    # The value-type and array rules, their sites, and the bounds on integers.
    ("errors.py", "if not isinstance(value, value_type):", "if not isinstance(value, object):",
     "tests/test_api.py::test_a_point_of_other_types_is_a_domain_error[0-fisher]"),
    ("errors.py", '("biuf" if numbers == "real" else "biufc")', '"biufc"',
     "tests/test_fisher.py::TestFisherFromBloch::test_complex_input_rejected"),
    ("errors.py", "except ValueError:  # a ragged nesting",
     "except TypeError:  # a ragged nesting",
     "tests/test_api.py::test_a_matrix_argument_is_a_nested_list_or_array_of_numbers[bloch_of]"),
    ("errors.py", " and all(n in (None, m) for n, m in zip(shape, a.shape))", "",
     "tests/test_api.py::test_a_matrix_argument_is_a_nested_list_or_array_of_numbers[bloch_of]"),
    ("errors.py", "except ValueError:  # past Python's int-to-str limit",
     "except TypeError:  # past Python's int-to-str limit",
     "tests/test_api.py::test_an_integer_past_the_string_limit_is_named_by_its_digit_count[verify]"),
    ("sweep.py", "self.count, 2, MAX_POINTS)", "self.count, 2)",
     "tests/test_api.py::test_an_integer_past_the_string_limit_is_named_by_its_digit_count[Axis]"),
    ("sweep.py", 'check_integer("grid", grid, 2, MAX_POINTS)  # before it keys', "pass  # before",
     "tests/test_api.py::test_a_figure_grid_of_another_type_is_a_domain_error[str]"),
    ("sweep.py", "@lru_cache(maxsize=len(FIGURE_IDS))\n", "",
     "tests/test_sweep.py::TestFigurePresets::test_each_call_expands_its_figure_once"),
    ("sweep.py", 'require_physical(check_fields(SweepSpec, spec)["dyadic"])',
     "require_physical(spec.dyadic)",
     "tests/test_api.py::test_a_value_type_argument_of_another_type_is_a_domain_error[run_sweep-0-None]"),
    ("sweep.py", "d = check_fields(CorrelationDyadic, self.dyadic)", "d = vars(self.dyadic)",
     "tests/test_api.py::test_a_value_type_argument_of_another_type_is_a_domain_error[SweepSpec-0-None]"),
    ("sweep.py", "    check_fields(SweepSpec, spec)\n    if not isinstance(rows, SweepRows):",
     "    if not isinstance(rows, SweepRows):",
     "tests/test_api.py::test_a_value_type_argument_of_another_type_is_a_domain_error[emit-0-None]"),
    ("__init__.py", " and not isinstance(value, types.ModuleType))", ")",
     "tests/test_api.py::test_all_is_the_public_names_the_package_imports"),
    # The command line's exit code and angle parsing.
    ("cli.py", "        return 1\n    except ConsistencyError",
     "        return 2\n    except ConsistencyError",
     "tests/test_cli.py::TestComplexParsing::test_infinite_weight_reaches_the_weight_check[inf]"),
    ("cli.py", "if denominator == 0.0:", "if denominator == -1.0:",
     "tests/test_cli.py::TestAngleParsing::test_rejects_garbage"),
    ("cli.py", "sign = -1.0 if match.group(1) else 1.0", "sign = 1.0",
     "tests/test_cli.py::TestAngleParsing::test_accepted_forms[-pi/4--0.7853981633974483]"),
    # Signs and term order in the closed forms and the dense helpers.
    ("teleport.py", "sy = w.real * y - u.imag * x", "sy = w.real * y + u.imag * x",
     "tests/test_acceptance.py::test_criterion_2_teleportation_oracle_equivalence"),
    ("channels.py", "(1, -1, 1), (1, 1, -1))", "(1, -1, 1), (1, 1, 1))",
     "tests/test_acceptance.py::test_criterion_4_closed_form_anchors"),
    ("unruh.py", "a3 * qr * cr + a4 * qlc * sr,", "a3 * qlc * sr + a4 * qr * cr,",
     "tests/test_api.py"),
    ("fisher.py", "(a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]",
     "a[0] * b[0] + (a[1] * b[1] + a[2] * b[2])",
     "tests/test_cli.py::test_figure_outputs_are_pinned[id-1a-grid-64-format-csv]"),
    ("_linalg.py", "np.real(z) * np.real(z) + np.imag(z) * np.imag(z)",
     "np.real(z) * np.real(z) - np.imag(z) * np.imag(z)",
     "tests/test_acceptance.py::test_criterion_1_channel_oracle_equivalence"),
    ("unruh.py", 'np.einsum("...iaja->...ij", big.reshape(*big.shape[:-2], 4, 2, 4, 2))',
     'np.einsum("...sabtac->...sbtc", big.reshape(*big.shape[:-2], 2, 2, 2, 2, 2, 2))'
     ".reshape(*big.shape[:-2], 4, 4)",
     "tests/test_acceptance.py::test_criterion_1_channel_oracle_equivalence"),
    # The circuit oracle's channel rule, and the container refusals.
    ("teleport.py", "np.isfinite(m).all() and abs(trace - 1.0) <= 1e-9", "np.isfinite(m).all()",
     "tests/test_teleport.py::TestCircuitOracle::test_unnormalized_channel_fails_probability_bookkeeping"),
    ("teleport.py", "np.isfinite(m).all() and abs(trace - 1.0) <= 1e-9", "abs(trace - 1.0) <= 1e-9",
     "tests/test_teleport.py::TestCircuitOracle::test_channel_off_unit_trace_or_non_finite_is_refused[entry3-nan]"),
    ("sweep.py", 'check_container("fixed must be a mapping or (name, value) pairs", pairs, dict)',
     "dict(pairs)",
     "tests/test_sweep.py::test_containers_that_do_not_convert_are_refused[fixed-none]"),
    ("sweep.py", 'check_container("axes must be a sequence", self.axes, tuple)', "tuple(self.axes)",
     "tests/test_sweep.py::test_containers_that_do_not_convert_are_refused[axes-none]"),
    ("sweep.py", 'check_container("sweep points must be a sequence of axes", self.points, tuple)',
     "tuple(self.points)",
     "tests/test_sweep.py::test_containers_that_do_not_convert_are_refused[points-none]"),
    ("errors.py", "except (TypeError, ValueError) as exc:", "except TypeError as exc:",
     "tests/test_sweep.py::test_containers_that_do_not_convert_are_refused[fixed-triple]"),
    # One fault path: the finite checks and the |s| refusal at the public boundary, the
    # kernel's NaN past the unit ball, the eigenvalue guard and verify's non-finite rule.
    ("sweep.py", "SweepRows(points, _finite(value).ravel()", "SweepRows(points, value.ravel()",
     "tests/test_cli.py::TestExitCodes::test_kernel_fault_in_a_figure_is_exit_2_and_writes_nothing"),
    ("fisher.py", "fd_step)\n    return FisherValue(value=float(_finite(value))",
     "fd_step)\n    return FisherValue(value=float(value)",
     "tests/test_cli.py::TestExitCodes::test_consistency_failure_is_exit_2"),
    ("fisher.py", 'overflows")\n    return FisherValue(value=float(_finite(value))',
     'overflows")\n    return FisherValue(value=float(value)',
     "tests/test_fisher.py::TestFisherFromBloch::test_a_formula_fault_is_an_internal_failure"),
    ("fisher.py", "if norm > 1.0 + BALL_SLACK:", "if norm > math.inf:",
     "tests/test_fisher.py::TestFisherFromBloch::test_vector_just_past_the_rounding_slack_rejected"),
    ("fisher.py", "return np.where(np.sqrt(norm2) > 1.0 + BALL_SLACK, np.nan, value), pure",
     "return value, pure",
     "tests/test_cli.py::TestExitCodes::test_kernel_vector_past_the_unit_ball_is_exit_2"),
    ("_linalg.py", "np.where(finite[..., 0], np.linalg.eigvalsh(np.where(finite, m, 0.0)), np.nan)",
     "np.linalg.eigvalsh(m)",
     "tests/test_verify.py::test_a_non_finite_channel_is_a_report"),
    ("verify.py", "np.where(np.isfinite(f), -f, np.inf)", "-f",
     "tests/test_verify.py::test_bloch_norm_check_names_its_worst_draw"),
    ("sweep.py", "pairs = tuple(self.fixed) if isinstance(self.fixed, Iterator) else self.fixed",
     "pairs = self.fixed",
     "tests/test_sweep.py::TestSpecCanonicalForm::test_an_iterator_of_pairs_gives_the_spec_of_a_mapping"),
    # Bad input to the public Fisher formula is refused as such, not as an internal bug.
    ("fisher.py", "if not np.isfinite([s, ds]).all():", "if not np.isfinite(s).all():",
     "tests/test_fisher.py::TestFisherFromBloch::test_non_finite_rejected"),
    # Axes stored as float64, and the render's one join per outer text: the pure patch, one
    # copy of the shared stretch per patched row, the outer text, and the piece's flags cut
    # at its block edges.
    ("sweep.py", "[np.float64, np.bool_] + [np.float64] * len(points)",
     "[np.float64, np.bool_] + [c.dtype for c in columns[2:]]",
     "tests/test_sweep.py::TestSweepRows::test_an_axis_is_stored_and_written_as_floats[bool]"),
    ("sweep.py", "lines[i][j] = inner[j] + on", "lines[i][j] = inner[j] + off",
     "tests/test_cli.py::test_figure_outputs_are_pinned[id-1a-grid-48-format-json-norm-normalized-method-fd]"),
    ("sweep.py", "if lines[i] is stretch:", "if True:",
     "tests/test_cli.py::test_figure_outputs_are_pinned[id-1a-grid-48-format-json-norm-normalized-method-fd]"),
    ("sweep.py", "lines[i] = stretch.copy()", "lines[i] = stretch",
     "tests/test_cli.py::test_figure_outputs_are_pinned[id-1a-grid-48-format-json-norm-normalized-method-fd]"),
    ("sweep.py", '"".join(text + text.join(line) for', '"".join(text.join(line) for',
     "tests/test_cli.py::TestSweepCommand::test_two_axes_and_out_file"),
    ("sweep.py", "np.nonzero(flags[r, c])", "np.nonzero(flags[r])",
     "tests/test_sweep.py::TestRenderContract::test_pure_flags_on_both_sides_of_a_piece_boundary[one-axis]"),
    # The non-finite refusal names its point's coordinates in row order, and a ds whose
    # value overflows is refused as bad input, with no warning.
    ("sweep.py", "itertools.product(*map(np.ndarray.tolist, rows.points))",
     "itertools.product(*map(np.ndarray.tolist, rows.points[::-1]))",
     "tests/test_sweep.py::TestRenderContract::test_a_refusal_names_the_first_non_finite_point_in_row_order"),
    ("fisher.py", 'with np.errstate(over="ignore"):', 'with np.errstate(over="warn"):',
     "tests/test_fisher.py::TestFisherFromBloch::test_a_ds_whose_value_overflows_is_refused"),
    ("fisher.py", "if np.isinf(value):", "if False:",
     "tests/test_fisher.py::TestFisherFromBloch::test_a_ds_whose_value_overflows_is_refused"),
    # One pass of the closed form: the partial in r keeps d and the signs of zero at r = 0;
    # verify's central differences take their own norm's scale; the scaling is skipped at 1
    # only; the circuit builds the |00> rows alone; a sweep fills its columns one kernel block
    # at a time.
    ("teleport.py", "-2.0 * np.sin(2.0 * r), 0.0\n", "-2.0 * np.sin(2.0 * r), d\n",
     "tests/test_acceptance.py::test_criterion_4_closed_form_anchors"),
    ("teleport.py", "-2.0 * np.sin(2.0 * r), 0.0\n", "-2.0 * np.sin(2.0 * r), -0.0\n",
     "tests/test_fisher.py::TestBlochPartial::test_vectors_at_the_edges_keep_their_bytes"),
    ("verify.py", "zip(partials[:3], partials[3:])", "zip(partials[:3], passes[4:])",
     "tests/test_acceptance.py::test_criterion_9_determinism"),
    ("fisher.py", "vectors if scale == 1.0 else", "vectors if scale > 0.25 else",
     "tests/test_cli.py::TestExitCodes::test_kernel_vector_past_the_unit_ball_is_exit_2"),
    ("teleport.py", "(_HADAMARD_GATE @ _CNOT_GATE)[:2]", "(_HADAMARD_GATE @ _CNOT_GATE)[2:4]",
     "tests/test_acceptance.py::test_criterion_2_teleportation_oracle_equivalence"),
    ("sweep.py", "value[cut], pure[cut] = _fisher(",
     "value[cut[0].start:], pure[cut[0].start:] = _fisher(",
     "tests/test_sweep.py::TestRunSweep::test_kernel_blocks_equal_one_kernel_call[1b]"),
    # One derivative stage that knows no norm: the analytic partials in the order asked, then
    # one central difference per stepped name at +-h with its operands in order; the method
    # picks the one or the other, and the fd step reaches the stage.
    ("fisher.py", "vectors = _branch_bloch(**p, wrt=wrt)",
     "vectors = _branch_bloch(**p, wrt=wrt[::-1])",
     "tests/test_acceptance.py::test_criterion_9_determinism"),
    ("fisher.py", "    for name in stepped:\n", "    for name in stepped[1:]:\n",
     "tests/test_acceptance.py::test_criterion_5_derivative_cross_validation"),
    ("fisher.py", "for step in (h, -h))", "for step in (h, 0.0))",
     "tests/test_acceptance.py::test_criterion_5_derivative_cross_validation"),
    ("fisher.py", "tuple((a - b) / (2.0 * h)", "tuple((b - a) / (2.0 * h)",
     "tests/test_acceptance.py::test_criterion_5_derivative_cross_validation"),
    ("fisher.py", '((param,), ()) if method == "analytic" else ((), (param,))',
     '((), (param,)) if method == "analytic" else ((param,), ())',
     "tests/test_cli.py::test_figure_outputs_are_pinned[id-1a-grid-64-format-csv]"),
    ("fisher.py", "_scaled(_vectors(p, wrt, stepped, h), mode)",
     "_scaled(_vectors(p, wrt, stepped), mode)",
     "tests/test_fisher.py::TestBlochTeleported::test_as_published_is_exactly_a_quarter[edges]"),
    # verify's draws streamed block by block: the running fold keeps the earlier draw of a tie
    # and the first NaN, and names a draw by its index over all blocks; each draw reads
    # little-endian words and keeps their top 53 bits, from a seed the stream reads as given. A
    # sweep runs the kernel block by block.
    ("verify.py", "or error <= held[0])", "or error < held[0])",
     "tests/test_verify.py::test_the_blockwise_fold_names_the_draw_of_one_block[largest, then NaN]"),
    ("verify.py", "not (math.isnan(held[0]) or error <= held[0])", "not error <= held[0]",
     "tests/test_verify.py::test_worst_draw_names_the_draw_in_a_later_block"),
    ("verify.py", "start + index, tuple(", "index, tuple(",
     "tests/test_verify.py::test_worst_draw_names_the_draw_in_a_later_block"),
    ("verify.py", ">> 11) * 2.0**-53", ">> 12) * 2.0**-53",
     "tests/test_sampling.py::test_dyadic_moments_are_those_of_the_uniform_tetrahedron"),
    ("verify.py", '"<u8"', '">u8"',
     "tests/test_verify.py::test_reports_are_pinned[1-42]"),
    ("verify.py", 'check_integer("seed", seed, 0)  # random.Random seeds', "pass  # random.Random seeds",
     "tests/test_sampling.py::test_seeds_the_stream_would_misread_are_refused[-1]"),
    ("sweep.py", "for cut in _blocks(*shape, KERNEL_BLOCK):", "for cut in [(slice(None),) * 2]:",
     "tests/test_sweep.py::TestRunSweep::test_kernel_blocks_equal_one_kernel_call[1b]"),
    # Each block's oracle checks fold at its offset, the anchors fold last, the reflection check
    # reads the normalized theta value and a pure value near the shell fails continuity.
    ("verify.py", "_fold(worst, _draw_errors(draws), draws, start)",
     "_fold(worst, _draw_errors(draws), draws, 0)",
     "tests/test_verify.py::test_worst_draw_names_the_draw_in_a_later_block"),
    ("verify.py", "    _fold(worst, _anchor_errors())\n", "\n",
     "tests/test_verify.py::test_check_sequence_is_pinned"),
    ("verify.py", "np.abs(values[0] - _fisher_from_bloch", "np.abs(values[1] - _fisher_from_bloch",
     "tests/test_acceptance.py::test_criterion_9_determinism"),
    ("verify.py", "if not pure else math.inf", "if not pure else 0.0",
     "tests/test_verify.py::test_a_vector_past_the_unit_ball_is_a_report"),
    # One cut rule for a sweep's grid: a long row is sliced, and only the last block of the
    # last row closes the JSON.
    ("sweep.py", "max(size // columns, 1)", "size // columns",
     "tests/test_sweep.py::TestRunSweep::test_kernel_blocks_equal_one_kernel_call[1b]"),
    ("sweep.py", "min(size, columns)", "columns",
     "tests/test_sweep.py::TestRunSweep::test_kernel_blocks_equal_one_kernel_call[1b]"),
    ("sweep.py", "r.stop >= grid[0] and c.stop >= grid[1]", "r.stop >= grid[0]",
     "tests/test_sweep.py::TestRenderContract::test_pure_flags_on_both_sides_of_a_piece_boundary[one-axis]"),
]


def check_mutants(indices: list[int]) -> None:
    """Exit unless each chosen mutant's old text occurs exactly once in its file."""
    for index in indices:
        file, old, _, _ = MUTANTS[index]
        count = (ROOT / PACKAGE / file).read_text().count(old)
        if count != 1:
            sys.exit(f"mutant {index}: its old text occurs {count} times in {file}")


def _pytest(work: Path, *args: str) -> subprocess.CompletedProcess:
    """``pytest -q -x`` with ``args`` on the copy at ``work``, which imports its own package."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
        capture_output=True, text=True,
    )


def run_mutant(index: int) -> str:
    """The report line of one mutant: its named test on a mutated copy, then Tier-1 unless
    that test failed (exit code 1, or 2 for an error while collecting it)."""
    file, old, new, killer = MUTANTS[index]
    with tempfile.TemporaryDirectory(prefix="unruh-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        path = work / PACKAGE / file
        path.write_text(path.read_text().replace(old, new))
        start = time.perf_counter()
        named = _pytest(work, killer)
        done = named if named.returncode in (1, 2) else _pytest(
            work, "--ignore", str(work / "tests" / "test_mutants.py"))
        seconds = time.perf_counter() - start
    first = next((line.split(" - ")[0].split(maxsplit=1)[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), f"exit code {done.returncode}")
    named_status = "passed" if named.returncode == 0 else f"exit code {named.returncode}"
    stale = "" if done is named else f" (named test {named_status})"
    verdict = (f"KILLED   {seconds:5.1f} s  by {first}{stale}" if done.returncode
               else f"SURVIVED {seconds:5.1f} s")
    return f"[{index:2}] {file}: {old.strip()!r} -> {new.strip()!r}: {verdict}"


def main(argv: list[str]) -> None:
    indices = [int(a) for a in argv] or list(range(len(MUTANTS)))
    check_mutants(indices)
    survived = 0
    for index in indices:
        line = run_mutant(index)
        survived += ": SURVIVED " in line
        print(line, flush=True)
    if survived:
        sys.exit(f"{survived} of {len(indices)} mutants SURVIVED")


if __name__ == "__main__":
    main(sys.argv[1:])
