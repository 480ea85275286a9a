"""Call counts of every ``hybridsim`` function over the benchmark experiments, to show which have no caller.

    python3 tools/traffic.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: the checkout holding this
script) and runs, in this process, the runs of ``tools/output_digests.py``:
every experiment of the four benchmark workloads at seeds 5 and 7, from
``CHECKOUT/bench/workloads.py`` (read, never changed), and its two ``qft-demo``
configs.  BLAS runs on one thread.  Under ``sys.setprofile`` it counts the calls
of each named function, method and nested function defined in
``CHECKOUT/src/hybridsim`` (module and class bodies, lambdas and comprehensions
are not listed).  It prints one line per function in source order, ``calls`` then
``module.py:line qualname``, and then the functions with 0 calls.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path


def _functions(package: Path) -> list[tuple[str, int, str]]:
    """(file, first line, qualified name) of every named function defined in the package's modules."""
    found = []
    for path in sorted(package.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):  # no class body
                found.append((str(path), code.co_firstlineno, code.co_qualname))
    return sorted(found)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import output_digests

    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            output_digests._run_all(checkout, Path(tmp))
        finally:
            sys.setprofile(None)
    by_key = Counter()
    for code, n in calls.items():
        by_key[(code.co_filename, code.co_firstlineno, code.co_qualname)] += n
    functions = _functions(checkout / "src" / "hybridsim")
    for key in functions:
        print(f"{by_key[key]:>10}  {Path(key[0]).name}:{key[1]} {key[2]}")
    unused = [key for key in functions if not by_key[key]]
    print(f"\n{len(unused)} of {len(functions)} functions have 0 calls:")
    for path, line, name in unused:
        print(f"  {Path(path).name}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
