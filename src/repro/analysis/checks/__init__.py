"""Built-in rules; importing this package registers them all.

====================  =================================================
Rule                  Hazard
====================  =================================================
``DET001``            unseeded / module-global RNG use
``DET002``            wall-clock reads inside simulated-time packages
``DET003``            iteration over unordered sets in decision paths
``DET004``            ``id()`` in sort keys / heap tuples / tie-breaks
``OBS001``            ledger emit site off the frozen schema table
====================  =================================================
"""

from . import determinism  # noqa: F401
from . import obs_conformance  # noqa: F401
