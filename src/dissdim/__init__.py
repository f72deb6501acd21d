"""dissdim: dissipation-dimension exponents and space-time measure diagnostics.

Four pieces:

* :mod:`dissdim.exponents` -- closed-form scaling exponents and the optimal
  time-anisotropy parameter for inviscid, viscous and conservation-law
  regimes.
* :mod:`dissdim.aniso_measure` -- anisotropic cylinders, atomic measures,
  box-counting dimension, density ladders and lower-bound certification.
* :mod:`dissdim.weak_balance` -- weak energy/entropy balances tested with
  explicit cutoffs on gridded fields, with fully instantiated Hoelder bounds.
* :mod:`dissdim.fixtures` -- analytic reference solutions: power-law
  divergence fields, Burgers shocks and rarefactions, a viscous Burgers
  solver, and measures of known dimension.

The ``dissdim`` CLI ties these into reproducible CSV/JSON pipelines.
"""

from .exponents import (
    IntegrabilityClass,
    ExponentReport,
    RegimeError,
    euler_exponent,
    euler_optimal,
    euler_unbounded_pressure,
    conservation_law_exponent,
    navier_stokes_exponent,
    case_numerology,
    forcing_admissible,
)
from .aniso_measure import (
    SpaceTimePoint,
    Cylinder,
    AtomicMeasure,
    DensityLadder,
    cylinder_mass,
    box_counting_dimension,
    density_ladder,
    certify_lower_bound,
)
from .cutoffs import CutoffPair, SpaceTimeTestFunction, SpatialTestFunction
from .errors import VerificationError
from .fields import GriddedField
from .weak_balance import (
    EntropyPair,
    BURGERS_PAIR,
    pair_weak_mass,
    holder_cylinder_bound,
    boundary_extended_mass,
    signed_support_bound,
)
from .fixtures import (
    PowerLawField,
    RiemannDatum,
    power_law_ball_mass,
    burgers_entropy_solution,
    burgers_dissipation_measure,
    viscous_burgers_run,
    time_singular_measure_fixture,
)

__version__ = "0.1.0"
