"""Time the degree-cap-6 closure of the full primitive set, the closure-at-scale probe.

    python3 tools/closure_cap6.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  It closes
``{sx@0*X@1, sz@0*X@1, sz@0*P@1}`` with reset-effective seeds on ``[qubit, qumode16]``
at degree cap 6 with no limit on new directions, asserts the known 747 directions and
576 report rows, and prints the seconds the closure took, in this process.  It also
prints a sha256 of the report: each direction's ``(degree, source, row)``, the bytes of
``coordinates`` and the notes, so two checkouts close bit-identically when ``diff`` of
their digest lines is empty.  BLAS runs on one thread unless the environment already
sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path

DIRECTIONS, ROWS = 747, 576


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim.hilbert import new_register, qubit, qumode
    from hybridsim.operators import parse_expr
    from hybridsim.synthesis import SynthesisRegistry, close_algebra

    registry = SynthesisRegistry(new_register([qubit(), qumode(16)]))
    seeds = [registry.register(parse_expr(text), drivable=True)
             for text in ("sx@0*X@1", "sz@0*X@1", "sz@0*P@1")]
    start = time.perf_counter()
    report = close_algebra(seeds, max_new=10**6, degree_cap=6, registry=registry)
    seconds = time.perf_counter() - start
    rows = len(report.coordinates)
    if (len(report.directions), rows) != (DIRECTIONS, ROWS):
        raise SystemExit(f"closure_cap6: {len(report.directions)} directions and {rows} rows, "
                         f"expected {DIRECTIONS} and {ROWS}")
    digest = hashlib.sha256()
    for d in report.directions:
        digest.update(repr((d.degree, d.source, d.row)).encode())
    digest.update(report.coordinates.tobytes())
    digest.update(repr(report.notes).encode())
    print(f"cap-6 closure: {DIRECTIONS} directions, {ROWS} rows, {seconds:.2f} s")
    print(f"report sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
