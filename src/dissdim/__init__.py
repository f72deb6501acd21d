"""dissdim: dissipation-dimension exponents and space-time measure diagnostics.

* :mod:`dissdim.exponents` -- closed-form scaling exponents and the optimal alpha.
* :mod:`dissdim.aniso_measure` -- anisotropic cylinders, atomic measures, box
  counts, density ladders and lower-bound certification.
* :mod:`dissdim.fields` -- ``GriddedField``, the one space-time grid type.
* :mod:`dissdim.cutoffs` -- explicit cutoff profiles and test functions.
* :mod:`dissdim.weak_balance` -- weak energy/entropy balances and their Hoelder bounds.
* :mod:`dissdim.fixtures` -- exact and viscous Burgers solutions, reference
  fields, and measures of known dimension.
* :mod:`dissdim.io` -- measure and field files, and CSV reports.
* :mod:`dissdim.errors` -- the errors the modules share.
* :mod:`dissdim.cli` -- the ``dissdim`` command's CSV/JSON pipelines.

Each name is imported from its module; the package itself loads none of them.
"""

__version__ = "0.1.0"
