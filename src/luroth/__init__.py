"""Luroth expansion digit statistics.

Exact extreme-value probabilities for Luroth digits, certified special
function kernels (integer zeta, Lambert W), trimmed-sum centering
ingredients, and a reproducible Monte Carlo engine with a continued-fraction
counterpart.  See the README for the command-line surface.
"""

from .expansion import (
    digit,
    expand,
    luroth_step,
    max_cdf_exact,
    pmf,
    preimage_length,
    reconstruct,
    tail,
    weight,
)
from .precision import (
    HighPrecisionReal,
    PrecisionError,
    bernoulli_number,
    bernoulli_triangle,
    lambert_w0,
    zeta_int,
)
from .extrema import (
    coeff_c,
    q_k,
    q_k_via_partial_fraction,
    rho_exact,
    rho_km,
    rho_series,
    rho_sum_over_k,
)
from .rng import RngStream
from .simulation import (
    McResult,
    mc_max_scaled_cdf,
    mc_rho,
    mc_trimmed_trajectory,
)
from .trimming import (
    EULER_GAMMA,
    a_of,
    b_of,
    c_k,
    harmonic,
    j2_partial_sums,
    w_asymptotic_gap,
)
from .contfrac import (
    expand_cf,
    mc_cf_rho_table,
    mc_cf_trimmed_table,
)

__version__ = "0.1.0"
