"""Zeros crowding onto the lemniscate: statistics plus figure emission.

Solves and certifies the degrees 5, 10, 16, 23, 40, 60 once and hands the
root sets to the report and the figure: the per-root residual
| |z(1-z)^2| - 4/27 |, each zero read in u = sqrt(z)(1-z) sqrt(27)/2, where
the right branch is |u| = 1 (n log|u| > 0 puts every zero outside the
loop, and a phase offset below pi puts it in its own sector of the circle),
and the six-panel SVG (branch + root markers) with its CSV data, written
into demos/output/.
"""

from pathlib import Path

from mpmath import nstr

from lemnizeros import (
    build_polynomial,
    convergence_report,
    divides_and_level_field,
    figure_zero_plot,
    find_roots,
)
from lemnizeros.analysis import residual_slope, summary_csv
from lemnizeros.geometry import level_field_csv

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

ns = [5, 10, 16, 23, 40, 60]
roots = {n: find_roots(build_polynomial(n)) for n in ns}
reports = convergence_report(roots)

print("per-degree lemniscate statistics:")
print(f"{'n':>4} {'median residual':>18} {'max residual':>16} {'min Re':>10} {'min n log|u|':>13} "
      f"{'max |phase offset|':>19}")
for rep in reports:
    print(f"{rep.n:>4} {nstr(rep.median_value_residual, 5):>18} "
          f"{nstr(rep.max_value_residual, 5):>16} {nstr(rep.min_real_part, 5):>10} "
          f"{nstr(rep.min_n_log_u, 4):>13} {nstr(rep.max_abs_phase_offset, 4):>19}")
print("log-median slope vs log n:", nstr(residual_slope(reports), 5),
      "(the residuals shrink roughly like a power of 1/n)")

svg, csv_text = figure_zero_plot(roots)
(out / "figure_zeros.svg").write_text(svg, encoding="utf-8")
(out / "figure_zeros.csv").write_text(csv_text, encoding="utf-8")
(out / "summary.csv").write_text(summary_csv(reports), encoding="utf-8")

(out / "level_field_z1.csv").write_text(
    level_field_csv(divides_and_level_field(1, (-1.5, 1.5, -1.5, 1.5), 64)), encoding="utf-8"
)

print(f"\nwrote figure_zeros.svg / figure_zeros.csv / summary.csv / level_field_z1.csv to {out}/")
print("open the SVG in a browser: one panel per degree, roots on the right branch.")
