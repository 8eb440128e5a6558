"""Time one Dirichlet eigensolve of a structure level in a fresh process.

    python3 perfbench/eigh_baseline.py STRUCTURE.json LEVEL

The BLAS thread count is whatever the environment gives this process (for
example ``OPENBLAS_NUM_THREADS=1``).  Prints ``{"seconds": ...}``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from fraclat.operator import assemble, laplacian_base  # noqa: E402
from fraclat.spectral import spectrum  # noqa: E402
from fraclat.structure import StructureSpec, build_level  # noqa: E402


def main() -> None:
    spec = StructureSpec.from_json(sys.argv[1])
    op = assemble(laplacian_base(spec), spec, build_level(spec, int(sys.argv[2])))
    op.matrix_float()
    M = np.random.default_rng(0).standard_normal((400, 400))
    np.linalg.eigh(M + M.T)  # start the BLAS threads before timing
    t0 = time.perf_counter()
    spectrum(op, "dirichlet")
    print(json.dumps({"seconds": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
