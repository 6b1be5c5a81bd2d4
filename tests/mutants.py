"""Mutation probe: Tier-1 run against the package with one small change at a time.

Run from anywhere in a checkout (CI runs it as its own job); pytest does not collect it:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 5 7    # the mutants at these indices

Each mutant is (file in src/unruh_teleport, old text, new text), and its old text must
occur exactly once in that file; every mutant is checked before any runs. For each one,
``src/``, ``tests/`` and ``pyproject.toml`` are copied into a fresh temporary directory
outside the checkout, the mutant is applied there, and ``python -m pytest -q -x`` runs on
the copy, leaving out ``tests/test_mutants.py``: that Tier-1 check of this list runs
``check_mutants`` and so fails on every mutated copy. One line per mutant gives KILLED or
SURVIVED, the seconds taken and, for a killed mutant, the first failing test. A surviving
mutant is a change that no test sees, and the probe then exits 1. Only the standard library
is used.
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
    ("fisher.py", "PURE_BRANCH_EPS = 1e-9", "PURE_BRANCH_EPS = 1e-10"),
    ("fisher.py", "BALL_SLACK = 1e-12", "BALL_SLACK = 1e-9"),
    ("channels.py", "EIGENVALUE_TOL = 1e-12", "EIGENVALUE_TOL = 1e-9"),
    ("teleport.py", "DEGENERATE_PROB = 1e-15", "DEGENERATE_PROB = 1e-3"),
    ("teleport.py", "(r00 - r11).real]) + 0.0", "(r00 - r11).real])"),
    ("unruh.py", "WEIGHT_NORM_TOL = 1e-14", "WEIGHT_NORM_TOL = 1e-13"),
    ("unruh.py", "CHANNEL_TOL = 1e-12", "CHANNEL_TOL = 1e-9"),
    ("fisher.py", "MAX_FD_STEP = R_MAX / 3.0", "MAX_FD_STEP = R_MAX / 2.0"),
    ("fisher.py", "MAX_POINTS = 2**20", "MAX_POINTS = 2**21"),
    ("verify.py", "EQUIV_TOL = 1e-12", "EQUIV_TOL = 1e-9"),
    ("sweep.py", "range(0, len(rows.fisher), 1 << 13)", "range(0, len(rows.fisher), 1 << 12)"),
    # Refusals at the public boundary.
    ("fisher.py", "    require_physical(d)\n    return p", "    return p"),
    ("errors.py", "if not isinstance(value, value_type):",
     "if not isinstance(value, (value_type, type(None))):"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not (isinstance(value, Real) and lo < z.real <= hi):"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not (isinstance(value, Real) and lo <= z.real < hi):"),
    ("errors.py", "    if not (isinstance(value, Real) and lo <= z.real <= hi):",
     "    if not lo <= z.real <= hi:"),
    ("errors.py", "    if isinstance(value, bool) or not isinstance(value, Complex):",
     "    if not isinstance(value, Complex):"),
    ("errors.py", "    return z.real", "    return value"),
    ("errors.py", "    except OverflowError:\n        raise DomainError(f\"{kind} is an integer too large",
     "    except ZeroDivisionError:\n        raise DomainError(f\"{kind} is an integer too large"),
    ("errors.py", "    if not lo <= value <= hi:", "    if not lo < value <= hi:"),
    ("unruh.py", 'check_real("accel", accel, 0.0)', 'check_real("accel", accel)'),
    ("sweep.py", "for column in (self.fisher, self.pure, *points)]",
     "for column in (self.fisher, self.pure)] + list(map(np.asarray, points))"),
    # The value-type and array rules, their sites, and the bounds on integers.
    ("errors.py", "if not isinstance(value, value_type):", "if not isinstance(value, object):"),
    ("errors.py", '("biuf" if numbers == "real" else "biufc")', '"biufc"'),
    ("errors.py", "except ValueError:  # a ragged nesting",
     "except TypeError:  # a ragged nesting"),
    ("errors.py", " and all(n in (None, m) for n, m in zip(shape, a.shape))", ""),
    ("errors.py", "except ValueError:  # past Python's int-to-str limit",
     "except TypeError:  # past Python's int-to-str limit"),
    ("sweep.py", "self.count, 2, MAX_POINTS)", "self.count, 2)"),
    ("sweep.py", 'check_integer("grid", grid, 2, MAX_POINTS)  # before it keys', "pass  # before"),
    ("sweep.py", "@lru_cache(maxsize=len(FIGURE_IDS))\n", ""),
    ("sweep.py", 'require_physical(check_fields(SweepSpec, spec)["dyadic"])',
     "require_physical(spec.dyadic)"),
    ("sweep.py", "d = check_fields(CorrelationDyadic, self.dyadic)", "d = vars(self.dyadic)"),
    ("sweep.py", "    check_fields(SweepSpec, spec)\n    if not isinstance(rows, SweepRows):",
     "    if not isinstance(rows, SweepRows):"),
    ("__init__.py", " and not isinstance(value, types.ModuleType))", ")"),
    # The command line's exit code and angle parsing.
    ("cli.py", "        return 1\n    except ConsistencyError",
     "        return 2\n    except ConsistencyError"),
    ("cli.py", "if denominator == 0.0:", "if denominator == -1.0:"),
    ("cli.py", "sign = -1.0 if match.group(1) else 1.0", "sign = 1.0"),
    # Signs and term order in the closed forms and the dense helpers.
    ("teleport.py", "sy = w.real * y - u.imag * x", "sy = w.real * y + u.imag * x"),
    ("channels.py", "(1, -1, 1), (1, 1, -1))", "(1, -1, 1), (1, 1, 1))"),
    ("unruh.py", "a3 * qr * cr + a4 * qlc * sr,", "a3 * qlc * sr + a4 * qr * cr,"),
    ("fisher.py", "(a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]",
     "a[0] * b[0] + (a[1] * b[1] + a[2] * b[2])"),
    ("_linalg.py", "np.real(z) * np.real(z) + np.imag(z) * np.imag(z)",
     "np.real(z) * np.real(z) - np.imag(z) * np.imag(z)"),
    ("unruh.py", 'np.einsum("...iaja->...ij", big.reshape(*big.shape[:-2], 4, 2, 4, 2))',
     'np.einsum("...sabtac->...sbtc", big.reshape(*big.shape[:-2], 2, 2, 2, 2, 2, 2))'
     ".reshape(*big.shape[:-2], 4, 4)"),
    # The circuit oracle's channel rule, and the container refusals.
    ("teleport.py", "np.isfinite(m).all() and abs(trace - 1.0) <= 1e-9", "np.isfinite(m).all()"),
    ("teleport.py", "np.isfinite(m).all() and abs(trace - 1.0) <= 1e-9", "abs(trace - 1.0) <= 1e-9"),
    ("sweep.py", 'check_container("fixed must be a mapping or (name, value) pairs", pairs, dict)',
     "dict(pairs)"),
    ("sweep.py", 'check_container("axes must be a sequence", self.axes, tuple)', "tuple(self.axes)"),
    ("sweep.py", 'check_container("sweep points must be a sequence of axes", self.points, tuple)',
     "tuple(self.points)"),
    ("errors.py", "except (TypeError, ValueError) as exc:", "except TypeError as exc:"),
    # One fault path: the finite checks and the |s| refusal at the public boundary, the
    # kernel's NaN past the unit ball, the eigenvalue guard and verify's non-finite rule.
    ("sweep.py", "SweepRows(points, _finite(value).ravel()", "SweepRows(points, value.ravel()"),
    ("fisher.py", "fd_step)\n    return FisherValue(value=float(_finite(value))",
     "fd_step)\n    return FisherValue(value=float(value)"),
    ("fisher.py", 'overflows")\n    return FisherValue(value=float(_finite(value))',
     'overflows")\n    return FisherValue(value=float(value)'),
    ("fisher.py", "if norm > 1.0 + BALL_SLACK:", "if norm > math.inf:"),
    ("fisher.py", "return np.where(np.sqrt(norm2) > 1.0 + BALL_SLACK, np.nan, value), pure",
     "return value, pure"),
    ("_linalg.py", "np.where(finite[..., 0], np.linalg.eigvalsh(np.where(finite, m, 0.0)), np.nan)",
     "np.linalg.eigvalsh(m)"),
    ("verify.py", "np.where(np.isfinite(f), -f, np.inf)", "-f"),
    ("sweep.py", "pairs = tuple(self.fixed) if isinstance(self.fixed, Iterator) else self.fixed",
     "pairs = self.fixed"),
    # Bad input to the public Fisher formula is refused as such, not as an internal bug.
    ("fisher.py", "if not np.isfinite([s, ds]).all():", "if not np.isfinite(s).all():"),
    # Axes stored as Python floats, and the render's one join per outer text: the pure
    # patch, its offset in the stretch, a copy per patched row, and the outer text.
    ("sweep.py", "tuple(axis.astype(float, copy=False).tolist())", "tuple(axis.tolist())"),
    ("sweep.py", "row[j - j0] = inner[j] + on", "row[j - j0] = inner[j] + off"),
    ("sweep.py", "row[j - j0] = inner[j] + on", "row[j] = inner[j] + on"),
    ("sweep.py", "if i not in pure else stretches[j0, j1].copy()", "if i not in pure else stretches[j0, j1]"),
    ("sweep.py", "part.append(outer[i] + outer[i].join(row))", "part.append(outer[i].join(row))"),
    ("sweep.py", "bounds = [(max(start - i * n, 0), min(stop - i * n, n))",
     "bounds = [(max(start - i * n, 0), n)"),
    # The non-finite refusal names its point's coordinates in row order, and a ds whose
    # value overflows is refused as bad input, with no warning.
    ("sweep.py", "zip(itertools.product(*rows.points), rows.fisher.tolist())",
     "zip(itertools.product(*reversed(rows.points)), rows.fisher.tolist())"),
    ("fisher.py", 'with np.errstate(over="ignore"):', 'with np.errstate(over="warn"):'),
    ("fisher.py", "if np.isinf(value):", "if False:"),
    # One pass of the closed form: the partial in r keeps d and the signs of zero at r = 0;
    # verify's central differences take their own norm's scale; the scaling is skipped at 1
    # only; the circuit builds the |00> rows alone; a sweep fills its columns one kernel block
    # at a time.
    ("teleport.py", "-2.0 * np.sin(2.0 * r), 0.0\n", "-2.0 * np.sin(2.0 * r), d\n"),
    ("teleport.py", "-2.0 * np.sin(2.0 * r), 0.0\n", "-2.0 * np.sin(2.0 * r), -0.0\n"),
    ("verify.py", "zip(partials[:3], partials[3:])", "zip(partials[:3], passes[4:])"),
    ("fisher.py", "vectors if scale == 1.0 else", "vectors if scale > 0.25 else"),
    ("teleport.py", "(_HADAMARD_GATE @ _CNOT_GATE)[:2]", "(_HADAMARD_GATE @ _CNOT_GATE)[2:4]"),
    ("sweep.py", "value[cut], pure[cut] = _fisher(",
     "value[cut[0].start:], pure[cut[0].start:] = _fisher("),
    # One derivative stage that knows no norm: the analytic partials in the order asked, then
    # one central difference per stepped name at +-h with its operands in order; the method
    # picks the one or the other, and the fd step reaches the stage.
    ("fisher.py", "vectors = _branch_bloch(**p, wrt=wrt)",
     "vectors = _branch_bloch(**p, wrt=wrt[::-1])"),
    ("fisher.py", "    for name in stepped:\n", "    for name in stepped[1:]:\n"),
    ("fisher.py", "for step in (h, -h))", "for step in (h, 0.0))"),
    ("fisher.py", "tuple((a - b) / (2.0 * h)", "tuple((b - a) / (2.0 * h)"),
    ("fisher.py", '((param,), ()) if method == "analytic" else ((), (param,))',
     '((), (param,)) if method == "analytic" else ((param,), ())'),
    ("fisher.py", "_scaled(_vectors(p, wrt, stepped, h), mode)",
     "_scaled(_vectors(p, wrt, stepped), mode)"),
    # verify's draws streamed block by block: the running fold keeps the earlier draw of a tie
    # and the first NaN, and names a draw by its index over all blocks; each draw reads
    # little-endian words and keeps their top 53 bits, from a seed the stream reads as given. A
    # sweep row past KERNEL_BLOCK is cut.
    ("verify.py", "or error <= held[0])", "or error < held[0])"),
    ("verify.py", "not (math.isnan(held[0]) or error <= held[0])", "not error <= held[0]"),
    ("verify.py", "start + index, tuple(", "index, tuple("),
    ("verify.py", ">> 11) * 2.0**-53", ">> 12) * 2.0**-53"),
    ("verify.py", '"<u8"', '">u8"'),
    ("verify.py", 'check_integer("seed", seed, 0)  # random.Random seeds', "pass  # random.Random seeds"),
    ("sweep.py", "rows, cols = max(KERNEL_BLOCK // inner, 1), min(KERNEL_BLOCK, inner)",
     "rows, cols = max(KERNEL_BLOCK // inner, 1), inner"),
    # Each sub-block folds at its own offset, the anchors fold last, the reflection check
    # reads the normalized theta value and a pure value near the shell fails continuity.
    ("verify.py", "_fold(worst, _draw_errors(block), block, start + at)",
     "_fold(worst, _draw_errors(block), block, start)"),
    ("verify.py", "    _fold(worst, _anchor_errors())\n", "\n"),
    ("verify.py", "np.abs(values[0] - _fisher_from_bloch", "np.abs(values[1] - _fisher_from_bloch"),
    ("verify.py", "if not pure else math.inf", "if not pure else 0.0"),
]


def check_mutants(indices: list[int]) -> None:
    """Exit unless each chosen mutant's old text occurs exactly once in its file."""
    for index in indices:
        file, old, _ = MUTANTS[index]
        count = (ROOT / PACKAGE / file).read_text().count(old)
        if count != 1:
            sys.exit(f"mutant {index}: its old text occurs {count} times in {file}")


def run_mutant(index: int) -> str:
    """The report line of one mutant, from Tier-1 on a mutated copy."""
    file, old, new = MUTANTS[index]
    with tempfile.TemporaryDirectory(prefix="unruh-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        path = work / PACKAGE / file
        path.write_text(path.read_text().replace(old, new))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore", str(work / "tests" / "test_mutants.py")],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    first = next((line.split(" - ")[0].split(maxsplit=1)[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), f"exit code {done.returncode}")
    verdict = f"KILLED   {seconds:5.1f} s  {first}" if done.returncode else f"SURVIVED {seconds:5.1f} s"
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
