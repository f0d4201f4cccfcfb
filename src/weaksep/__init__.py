"""weaksep: seedable simulator and analytics for qubit discrimination with weak measurements.

The package has no top-level re-exports; import from its modules, e.g.
``from weaksep.walk import run_ensemble``.
"""

__version__ = "0.1.0"
