"""Write the reference roots that the solve_cold workload checks against.

Solves every degree in 40..60 with the default PrecisionConfig and prints
each root's real and imaginary parts to 30 significant digits.  The file is
an oracle for later solver changes, so regenerate it only on purpose:

    python3 bench/make_reference.py > bench/reference_roots.csv
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath  # noqa: E402

from lemnizeros import build_polynomial, find_roots  # noqa: E402

DEGREES = range(40, 61)
DIGITS = 30


def main() -> None:
    print("n,re,im")
    for n in DEGREES:
        t0 = time.perf_counter()
        rs = find_roots(build_polynomial(n))
        print(f"n={n}: {time.perf_counter() - t0:.2f} s at {rs.precision_used} bits", file=sys.stderr)
        for z in rs.roots:
            print(f"{n},{mpmath.nstr(z.real, DIGITS)},{mpmath.nstr(z.imag, DIGITS)}")


if __name__ == "__main__":
    main()
