"""kmiter: spectral fixed-point reconstruction for ill-posed evolution problems.

The package solves three data-completion problems over a discrete spectral
model of a positive operator: recovering the far-side Neumann trace of an
elliptic Cauchy problem, the initial velocity of a wave problem with
displacement data at two times, and the initial state of a heat problem
observed at the final time.  All three are handled by the same affine
per-mode iteration ``phi -> F(lambda) phi + z`` whose multipliers stay
inside the unit disc, together with a spectral-cutoff regularizer for
noisy data.

Layout:

* :mod:`kmiter.spectral` - spectrum models, coefficient vectors, scale norms
* :mod:`kmiter.problems` - the three model problems and their closed forms
* :mod:`kmiter.iterations` - iteration factors, schedules, operator checks
* :mod:`kmiter.regularization` - noise, smoothing, cutoff selection
* :mod:`kmiter.gridio` - grid sampling, CSV ingestion, synthetic data
* :mod:`kmiter.bench` - experiment configs, tables, report emission
* :mod:`kmiter.cli` - the ``kmiter`` command
"""

from . import bench, errors, gridio, iterations, problems, regularization, spectral
from .errors import *
from .spectral import *
from .problems import *
from .iterations import *
from .regularization import *
from .gridio import *
from .bench import *

__version__ = "0.1.0"

# Each module's ``__all__`` declares its public names; the package exports
# their union, in module order.
__all__ = [
    "__version__", *errors.__all__, *spectral.__all__, *problems.__all__, *iterations.__all__,
    *regularization.__all__, *gridio.__all__, *bench.__all__,
]
