"""Numerical thresholds shared across the library.

Every check reads its threshold from here.  Three of them may be set for one
call, as a keyword of the only function that reads them: ``TAIL`` as
``tail_tol`` of ``fock.make_state``, ``tensor`` and ``tensor_all``;
``HERALD_FLOOR`` as ``herald_floor`` of ``measurement.condition``; and
``FEASIBILITY`` as ``feasibility`` of ``efficiency.generalized_efficiency``.
A spec's ``tolerances`` block sets them for the commands that read them.
"""

#: absolute entrywise Hermiticity slack (scaled by the matrix magnitude)
HERMITICITY = 1e-12
#: truncation tail weight above which state construction refuses
TAIL = 1e-10
#: heralding outcomes rarer than this are treated as impossible
HERALD_FLOOR = 1e-12
#: allowed deviation of the trace from one for every state, beyond its
#: recorded truncation tail
UNIT_TRACE = 1e-10
#: occupation weight below which a photon-number level counts as empty
SUPPORT = 1e-13
#: maximum amplification p^(-support) allowed when inverting loss
CONDITIONING = 1e12
#: minimum-eigenvalue slack used by the loss-feasibility test, as a
#: fraction of trace
FEASIBILITY = 1e-9
