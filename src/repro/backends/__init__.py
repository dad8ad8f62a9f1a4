"""One eliminator per engine.

Every array-touching step of the RLNC stack — absorbing a row, the
helpfulness test (Definition 3 of the paper), encoding a random combination
— runs on an incremental Gaussian eliminator, and each engine has exactly
one:

* the scalar decoder (:class:`~repro.rlnc.decoder.RlncDecoder`) runs on the
  dense :class:`~repro.gf.linalg.BatchEliminator` over every field, with the
  payload columns carried along;
* the event-driven engine runs on
  :class:`~repro.backends.rows.RowEliminator`, one problem at a time, each
  stored row one python int (a bit per column over ``GF(2)``, a byte per
  column otherwise).

Both keep the canonical RREF basis of every problem, and the RREF basis of
a subspace is unique, so they hold the same state after the same rows:
that is what makes the two engines bit-identical.
``tests/test_backend_conformance.py`` holds the row eliminator and the
one-shot ``gf.linalg`` kernels to the dense one.
"""

from __future__ import annotations

from .rows import RowEliminator

__all__ = ["RowEliminator"]
