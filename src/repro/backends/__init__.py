"""One incremental eliminator for both engines.

Every array-touching step of the RLNC stack — absorbing a row, the
helpfulness test (Definition 3 of the paper), encoding a random combination
— runs on :class:`~repro.backends.rows.RowEliminator`, one problem at a
time, each stored row one python int (a bit per column over ``GF(2)``, a
byte per column otherwise):

* the event-driven engine keeps one problem per node over the ``k``
  coefficient columns;
* the scalar decoder (:class:`~repro.rlnc.decoder.RlncDecoder`) keeps one
  problem over ``[coefficients | payload]`` rows, the payload columns
  augmented (carried along, never pivots).

Each problem holds the canonical RREF basis of its row space, and the RREF
basis of a subspace is unique, so the two engines hold the same coefficient
state after the same rows: that is what makes them bit-identical.
``tests/test_backend_conformance.py`` holds the eliminator to the one-shot
``gf.linalg.row_reduce``, which shares no code with it.
"""

from __future__ import annotations

from .rows import RowEliminator

__all__ = ["RowEliminator"]
