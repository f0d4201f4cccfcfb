"""weaksep: seedable simulator and analytics for qubit discrimination with weak measurements.

The package has no top-level re-exports; import from its modules, e.g.
``from weaksep.walk import run_ensemble``, which walks the collapse ensembles
of every grid point of a run in one call.
"""

__version__ = "0.1.0"
