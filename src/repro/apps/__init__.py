"""Data-parallel applications used as the paper's case studies.

* :mod:`repro.apps.matmul` -- heterogeneous parallel matrix multiplication
  with column-based 2D partitioning and the b x b block-update GEMM kernel
  (Section 4.1 of the paper);
* :mod:`repro.apps.jacobi` -- the Jacobi method with row distribution and
  dynamic load balancing (Section 4.4 / Fig. 4 of the paper);
* :mod:`repro.apps.stencil` -- a CFD-style heat stencil with halo exchange,
  balanced the same way.  Jacobi and the stencil share one balanced row
  run (``repro.apps._rows``).
"""
