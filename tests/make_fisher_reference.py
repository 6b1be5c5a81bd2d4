"""Write ``fisher_reference.json``: the 40-digit Fisher value of every point of
every figure at grid 9, in both norms, as the shortest round-trip double.

Run from the repository root:

    PYTHONPATH=src python tests/make_fisher_reference.py

The file is the reference of ``test_mpmath_reference.py``; regenerate it only
when the reference itself (``mp_fisher`` or the figure presets) changes.
"""

import json

from test_mpmath_reference import (
    DIGITS, REFERENCE_FILE, REFERENCE_GRID, STEP, figure_reference,
)
from unruh_teleport.fisher import NORM_NAMES
from unruh_teleport.sweep import FIGURE_IDS


def main() -> None:
    table = {
        "digits": DIGITS,
        "step": str(STEP),
        "grid": REFERENCE_GRID,
        "fisher": {
            fig_id: {norm: figure_reference(fig_id, norm) for norm in NORM_NAMES}
            for fig_id in FIGURE_IDS
        },
    }
    REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
