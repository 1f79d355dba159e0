import os
import sys
from pathlib import Path

# The benchmark's BLAS setting, before numpy loads: the kept failing
# certify call and its N = 23 rescue are checked at one BLAS thread.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
