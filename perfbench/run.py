"""Entry point of the dbdiag benchmark.

    python3 perfbench/run.py --workload report_storm --seed 1 --seconds 20 --trace 0

Run it from the repository root. It caps the BLAS thread count at the CPUs
this process may use before NumPy loads, makes sure ``dbdiag`` is imported
from this checkout's ``src/`` and nowhere else, then hands over to
``bench.main``. Without the sources it exits non-zero and prints no result.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def import_checkout_sources(root: Path) -> None:
    src = root / "src"
    if not (src / "dbdiag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dbdiag sources under {src}")
    sys.path.insert(0, str(src))
    import dbdiag
    if Path(dbdiag.__file__).resolve().parent != (src / "dbdiag").resolve():
        sys.exit(f"perfbench: dbdiag was imported from {dbdiag.__file__}, not {src}")


if __name__ == "__main__":
    pin_blas_threads()
    import_checkout_sources(Path(__file__).resolve().parent.parent)
    import bench
    sys.exit(bench.main())
