"""Write ``fisher_reference.json``: the 40-digit Fisher value of every point of
every figure at grid 9, in both norms, as the shortest round-trip double; and
``fisher_band_reference.json``: the same for the normalized points of every figure
at grids 256 and 1024 that ``band_indices`` picks next to theta = 0, theta = pi
and r = 0 (3,072 values), and, under "interior", for every point of the phi = 0
line at grid 256 of each figure in ``INTERIOR_FIGURES``, which crosses the interior
pure curve (1,536 values).

Run from the repository root:

    PYTHONPATH=src python tests/make_fisher_reference.py

The files are the references of ``test_mpmath_reference.py``; regenerate them only
when the reference itself (``mp_fisher``, the figure presets or the band lines) changes.
"""

import json

from test_mpmath_reference import (
    BAND_FILE, BAND_STRIDES, DIGITS, INTERIOR_FIGURES, INTERIOR_GRID, REFERENCE_FILE,
    REFERENCE_GRID, STEP, band_points, figure_reference, interior_points, normalized_reference,
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
    band = {
        "digits": DIGITS,
        "step": str(STEP),
        "norm": "normalized",
        "strides": BAND_STRIDES,
        "fisher": {
            fig_id: {grid: normalized_reference(fig_id, band_points(fig_id, grid))
                     for grid in BAND_STRIDES}
            for fig_id in FIGURE_IDS
        },
        "interior": {
            "grid": INTERIOR_GRID,
            "fisher": {
                fig_id: normalized_reference(fig_id, interior_points(fig_id))
                for fig_id in INTERIOR_FIGURES
            },
        },
    }
    BAND_FILE.write_text(json.dumps(band, indent=1) + "\n")


if __name__ == "__main__":
    main()
