"""Pin the BLAS and OpenMP thread pools to one thread for the whole suite.

These variables are read once, when numpy loads its BLAS, so they are set
here, before any test module imports numpy.  Subprocesses started by the
tests inherit them.  On a loaded machine an unpinned pool can make the suite
an order of magnitude slower.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
