"""Numerics for the (p, nu)-extended Beta and extended Appell F1 functions.

The extension replaces the Euler kernel of the Beta integral with a
modified-Bessel factor sqrt(2p/pi) K_{nu+1/2}(p/(t(1-t))), which
regularizes both endpoints; building the first Appell function on top of
it yields F_{1,p,nu}.  The package evaluates both objects by independent
routes (double series and kernel integrals), provides the supporting
special functions and quadrature engines, and ships verification suites
for the transformation, Mellin, differentiation, recursion, bound and
Meijer-G identities they satisfy.
"""

from types import ModuleType as _ModuleType

from .bessel import BesselOrder, bessel_k, bessel_k_scaled, bessel_k_upper_bound
from .errors import ConvergenceError, DegenerateIdentity, DomainError, PoleError
from .extbeta import ExtensionParams, chaudhry_beta, extended_beta
from .f1pv import (
    ROUTES,
    ExtendedAppellInput,
    f1pv,
    f1pv_bound,
    f1pv_bound_simple,
    f1pv_derivative,
    f1pv_integral,
    f1pv_recursion_b2,
    f1pv_recursion_b3,
    f1pv_series,
    f1pv_transform,
    route_for,
)
from .hyper import AppellParams, appell_f1_integral, appell_f1_series, pfq
from .meijer import GSpec, meijer_g, verify_k_g_identity, verify_theorem1
from .mellin import mellin_forward_closed, mellin_forward_numeric, mellin_inverse_numeric
from .quadrature import (
    QuadratureResult,
    integrate_semi_infinite,
    integrate_unit_interval,
    integrate_vertical_line,
)
from .report import VerificationRecord, write_report
from .scalar import beta, gamma, log_gamma, pochhammer, principal_power
from .suites import SUITES, run_suite

__version__ = "0.1.0"

# the names imported above, without the submodules those imports bind
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
