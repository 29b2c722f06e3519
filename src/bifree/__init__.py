"""Bi-non-crossing combinatorics and exact tensor-sum CLT moments.

Submodules:

* :mod:`bifree.partitions` set partitions, non-crossing enumeration and joins
* :mod:`bifree.transfer` the transfer matrix over pairs of non-crossing
  partitions
* :mod:`bifree.bichromatic` left/right side maps and bi-non-crossing families
* :mod:`bifree.meanders` meandric systems and loop counting
* :mod:`bifree.cumulants` exact free moment/cumulant calculus
* :mod:`bifree.limit_law` the q-interpolated limit distribution
* :mod:`bifree.tensor_clt` exact finite-n tensor-sum moments
* :mod:`bifree.matrix_model` GUE Monte Carlo against the exact predictions
* :mod:`bifree.cli` the `bifree` command
"""

__version__ = "0.1.0"
