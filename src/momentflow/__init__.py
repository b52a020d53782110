"""momentflow: arbitrary-order Hermite moment solver for 1-D microflows,
with a conservative discrete-velocity reference solver.

Import the submodules.  This file imports nothing, so ``--threads`` can pin
the BLAS pools before numpy loads.
"""
