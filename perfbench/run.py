"""Entry point of the svtc benchmark; see perfbench/README.md.

Pins BLAS and svtc to one thread before numpy loads, puts the checkout's
``src`` on the import path and runs ``bench.main``.
"""

import os
import sys
from pathlib import Path

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SVTC_THREADS": "1",
}


def main() -> int:
    os.environ.update(PINNED)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "svtc" / "__init__.py").is_file():
        print(f"error: svtc sources not found at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # noqa: E402  (numpy must load after the pinning above)

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
