"""Luroth expansion digit statistics.

Exact extreme-value probabilities for Luroth digits, certified special
function kernels (integer zeta, Lambert W), trimmed-sum centering
ingredients, and a reproducible Monte Carlo engine with a continued-fraction
counterpart.  See the README for the command-line surface.
"""

from .expansion import *
from .precision import *
from .extrema import *
from .rng import *
from .simulation import *
from .trimming import *
from .contfrac import *

__version__ = "0.1.0"
