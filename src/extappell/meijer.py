"""Restricted Meijer G evaluator and the G sides of the paper's identities.

Covers exactly four shapes -- G^{2,0}_{1,2}, G^{2,1}_{1,2}, G^{2,0}_{0,2},
G^{4,0}_{0,4} -- by Slater-type residue summation: one generalized
hypergeometric series per family of Gamma poles, exact where it converges.

Two cases leave the series: large arguments, where the alternating
residue series cancel beyond double precision, and b's at an exactly
integer spacing, where two pole families merge and each family's series
meets a Gamma pole.  There the closed Bessel-K form answers when the
parameters match one of the five K identities, read backwards, and the
evaluation fails loudly otherwise.  No contour quadrature is attempted,
though for the three n = 0 shapes the line Re s = min Re b_j - 1/2
separates the poles at any spacing (DLMF 16.17); only G^{2,1}_{1,2}, whose
Gamma(1 - a + s) poles lie to the left, can have families no straight
contour separates.

Each K-G identity 1.7-1.11, K_nu(z) = C(nu, mu) z^-mu e^{sign z} G, is
written once, as a row of ``_K_G_ROWS`` (1.8 is 1.10 at mu = 0 and reads
its row); the checks' G forms, the K route and the Theorem-1 forms take
every constant from there.  Two misprints in the source are corrected
(both verified numerically to ~1e-26 against independent multiprecision
evaluation): identity 1.10 carries e^{-z}, not e^{+z} (its row's sign),
and the G^{2,0}_{0,2} form 2.5 of the extended Appell function needs an
extra 1/sqrt(pi) (its stated prefactor in ``_theorem1_pieces``).

The two ``verify_`` functions return an identity's G side and judge
nothing (``suites`` compares it with the other side); where an identity
checks nothing they raise ``DegenerateIdentity``.  The benchmark tracer
wraps them and ``meijer_g`` by name, so these three names stay.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

from .bessel import bessel_k
from .errors import ConvergenceError, DegenerateIdentity, DomainError
from .extbeta import ExtendedBetaFamily, real_or_complex
from .f1pv import ExtendedAppellInput
from .hyper import check_euler_domain, euler_integral_beta, pfq
from .scalar import log_gamma, principal_power

# case tag -> (m, n, p, q) of G^{m,n}_{p,q}
G_SHAPES = {
    "G2012": (2, 0, 1, 2),
    "G2112": (2, 1, 1, 2),
    "G2002": (2, 0, 0, 2),
    "G4004": (4, 0, 0, 4),
}
_SERIES_EXP_LIMIT = 18.0  # exp-scale beyond which residue series cancel away
_PATTERN_TOL = 1e-10


@dataclass(frozen=True)
class GSpec:
    """One restricted Meijer-G evaluation: case tag, parameters, argument,
    each parameter and the argument finite."""

    case: str
    alpha: tuple
    beta: tuple
    z: complex

    def __post_init__(self):
        if self.case not in G_SHAPES:
            raise DomainError(f"unsupported Meijer-G case {self.case!r}")
        m, n, p, q = G_SHAPES[self.case]
        object.__setattr__(self, "alpha", tuple(complex(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(complex(b) for b in self.beta))
        object.__setattr__(self, "z", complex(self.z))
        if len(self.alpha) != p or len(self.beta) != q:
            raise DomainError(
                f"{self.case} needs {p} alpha and {q} beta parameters, got "
                f"{len(self.alpha)} and {len(self.beta)}"
            )
        named = (*((f"a{i}", a) for i, a in enumerate(self.alpha, 1)),
                 *((f"b{i}", b) for i, b in enumerate(self.beta, 1)), ("z", self.z))
        for name, value in named:
            if not cmath.isfinite(value):
                raise DomainError(f"Meijer G needs finite parameters, got {name} = {value}")
        if self.z == 0:
            raise DomainError("Meijer G undefined at z = 0")
        kappa = m + n - 0.5 * (p + q)
        if abs(cmath.phase(self.z)) >= math.pi * kappa:
            raise DomainError(
                f"|arg z| must stay below pi*kappa = {math.pi * kappa:g}"
            )

    @property
    def shape(self) -> tuple:
        return G_SHAPES[self.case]


def _exp_scale(spec: GSpec) -> float:
    """Growth rate (q - p) |z|^(1/(q - p)) of the residue series terms."""
    _m, _n, p, q = spec.shape
    return (q - p) * abs(spec.z) ** (1.0 / (q - p))


def _degenerate(beta: tuple) -> bool:
    for i in range(len(beta)):
        for j in range(i + 1, len(beta)):
            d = beta[i] - beta[j]
            if abs(d.imag) < 1e-13 and abs(d.real - round(d.real)) < 1e-13:
                return True
    return False


def _residue_sum(spec: GSpec) -> complex:
    m, n, p, q = spec.shape
    a, beta = spec.alpha, spec.beta
    sign = 1.0 if (p - m - n) % 2 == 0 else -1.0
    total = 0.0 + 0.0j
    for k in range(m):
        bk = beta[k]
        lg = 0.0 + 0.0j
        for j in range(m):
            if j != k:
                lg += log_gamma(beta[j] - bk)
        for j in range(n):
            lg += log_gamma(1.0 + bk - a[j])
        for j in range(n, p):
            lg -= log_gamma(a[j] - bk)
        # m = q in all supported cases: no trailing beta Gammas downstairs
        pref = cmath.exp(lg) * principal_power(spec.z, bk)
        series = pfq([1.0 + bk - aj for aj in a],
                     [1.0 + bk - beta[j] for j in range(q) if j != k], sign * spec.z)
        total += pref * series
    return total


def _k_route(spec: GSpec) -> complex:
    """G(spec) from the K identity of its shape, its row read backwards:
    each row has beta[0], beta[q//2] = (mu + nu)/d, (mu - nu)/d and G's
    argument arg(1) z_K^d, d = q - p.  Answers K_nu(z_K) / factor only when
    the rebuilt G form has the given parameters.
    """
    _m, _n, p, q = spec.shape
    d = q - p
    which, row = next((w, r) for w, r in _K_G_ROWS.items() if r.case == spec.case)
    b0, b1 = spec.beta[0], spec.beta[q // 2]
    nu, mu = d / 2.0 * (b0 - b1), d / 2.0 * (b0 + b1)
    z_k = spec.z / row.arg(1.0)  # z_K^d, and d = 1, 2 or 4: log2(d) square roots
    for _ in range(d.bit_length() - 1):
        z_k = cmath.sqrt(z_k)
    # a complex order rebuilds a different beta, so it fails the match
    rebuilt, factor = _identity_spec(which, nu.real, z_k, mu)
    given = spec.alpha + spec.beta
    if any(abs(g - r) > _PATTERN_TOL for g, r in zip(given, rebuilt.alpha + rebuilt.beta)):
        raise ConvergenceError(
            f"{spec.case} parameters match no Bessel-K identity, and the residue "
            "series cannot evaluate them (argument too large or integer b spacing)"
        )
    if factor == 0:
        raise ConvergenceError(
            f"{spec.case} Bessel-K identity {which} has a vanishing factor here")
    return bessel_k(nu.real, z_k) / factor


def _residue_safe(spec: GSpec) -> bool:
    """Whether the residue series answers: its terms do not cancel beyond
    double precision, and no two pole families collide."""
    return _exp_scale(spec) <= _SERIES_EXP_LIMIT and not _degenerate(spec.beta)


def meijer_g(spec: GSpec) -> complex:
    """Evaluate the restricted Meijer G.

    The residue series answers where ``_residue_safe``; elsewhere the
    closed Bessel-K form answers when the parameters match an identity
    pattern, and this raises ``ConvergenceError`` when none matches.
    """
    if _residue_safe(spec):
        return _residue_sum(spec)
    return _k_route(spec)


# --------------------------------------------------------------------------
# the five K <-> G identities
# --------------------------------------------------------------------------

K_G_IDENTITIES = ("1.7", "1.8", "1.9", "1.10", "1.11")


def _cos_pi(nu: float) -> float:
    """cos(pi nu), but 0 within _degenerate's 1e-13 of a half-integer nu,
    where 1.8 and 1.10 say 0 = 0 and a rounded cos(pi nu) is all rounding."""
    off_half = (nu - 0.5) - round(nu - 0.5)
    return 0.0 if abs(off_half) < 1e-13 else math.cos(math.pi * nu)


# one K-G identity, K_nu(z) = constant(nu, mu) z^-mu e^{sign z} G: G's shape
# ``case``, its (alpha, beta) = params(nu, mu) and argument arg(z), and
# whether it takes mu (one that does not holds at mu = 0 only)
_KG = namedtuple("_KG", "case params arg takes_mu sign constant")

# one row per G shape; identity 1.8 is 1.10 at mu = 0, term for term (``_row``)
_K_G_ROWS = {
    "1.7": _KG("G2012", lambda nu, mu: ((0.5,), (nu, -nu)),
               arg=lambda z: 2.0 * z, takes_mu=False, sign=1.0,
               constant=lambda nu, mu: math.sqrt(math.pi)),
    "1.9": _KG("G2002", lambda nu, mu: ((), ((mu + nu) / 2.0, (mu - nu) / 2.0)),
               arg=lambda z: z * z / 4.0, takes_mu=True, sign=0.0,
               constant=lambda nu, mu: 2.0 ** (mu - 1.0)),
    # e^{-z}: the e^{+z} variant fails numerically by a factor e^{2z}
    "1.10": _KG("G2112", lambda nu, mu: ((mu + 0.5,), (mu + nu, mu - nu)),
                arg=lambda z: 2.0 * z, takes_mu=True, sign=-1.0,
                constant=lambda nu, mu: _cos_pi(nu) * 2.0 ** -mu / math.sqrt(math.pi)),
    "1.11": _KG("G4004", lambda nu, mu: ((), ((mu + nu) / 4.0, (2 + mu + nu) / 4.0,
                                              (mu - nu) / 4.0, (2 + mu - nu) / 4.0)),
                arg=lambda z: z**4 / 256.0, takes_mu=True, sign=0.0,
                constant=lambda nu, mu: 4.0 ** (mu - 1.0) / math.pi),
}


def _row(which: str, mu: complex):
    """(row, mu) of identity ``which``: 1.8 reads 1.10's row at mu = 0, and
    an identity that takes no mu gets mu = 0."""
    row = _K_G_ROWS.get("1.10" if which == "1.8" else which)
    if row is None:
        raise DomainError(f"unknown identity {which!r}; expected one of {K_G_IDENTITIES}")
    return row, mu if row.takes_mu and which != "1.8" else 0.0


def _identity_spec(which: str, nu: float, z: complex, mu: complex):
    """(spec, factor) of identity ``which``, K_nu(z) = factor * G(spec), both
    from its row: factor = C(nu, mu) z^-mu e^{sign z}."""
    row, mu = _row(which, mu)
    spec = GSpec(row.case, *row.params(nu, mu), row.arg(z))
    return spec, row.constant(nu, mu) * principal_power(z, -mu) * cmath.exp(row.sign * z)


def verify_k_g_identity(which: str, nu: float, z: float, mu: float = 0.0) -> complex:
    """The G side of K-G identity ``which``, factor * G by the residue
    route, checked against ``bessel_k(nu, z)``.

    Raises ``DegenerateIdentity`` where the identity checks nothing: the
    identities with a cos(pi nu) factor are 0 = 0-at-a-pole statements at
    half-integer nu, and integer 2 nu collides the pole families.
    """
    which = str(which)
    nu, z, mu = real_or_complex(nu, z, mu)
    if isinstance(z, complex):
        raise DomainError(f"identity checks take a real nu, z and mu, got {nu}, {z}, {mu}")
    if z <= 0.0:
        raise DomainError(f"identity checks run at real z > 0, got {z}")
    if which in ("1.8", "1.10") and abs(math.cos(math.pi * nu)) < 1e-9:
        raise DegenerateIdentity("cos(pi nu)=0 degeneracy")
    spec, factor = _identity_spec(which, nu, z, mu)
    if _degenerate(spec.beta):
        raise DegenerateIdentity("degenerate beta spacing (integer order distance)")
    if not _residue_safe(spec):
        raise ConvergenceError(f"identity {which} at z = {z} is past the residue series")
    return factor * _residue_sum(spec)


# --------------------------------------------------------------------------
# Theorem-1 style integral representations
# --------------------------------------------------------------------------

THEOREM1_FORMS = ("2.3", "2.4", "2.5", "2.6", "2.7")
# the K-G identity each G form is rewritten through; 2.3 is the K form itself
_FORM_IDENTITY = {"2.4": "1.8", "2.5": "1.9", "2.6": "1.10", "2.7": "1.11"}


def _theorem1_pieces(which: str, inp: ExtendedAppellInput, mu: float):
    """(prefactor, mu of the integral) for one G-form; forms 2.3 and 2.4
    have no mu and integrate at mu = 0.

    The paper's stated prefactor (2.5's with the corrective 1/sqrt(pi)) over
    C(m, mu), m = nu + 1/2, of the K identity of its G factor, read from that
    row of ``_K_G_ROWS`` (``_FORM_IDENTITY``).  w^mu is left to the integral,
    per node: the algebra must cancel its mu against the shifted t powers.
    """
    a, ext = inp.appell, inp.ext
    p, nu = ext.p, ext.nu
    m = nu + 0.5
    gr = 1.0 / euler_integral_beta(a.b1, a.c1)
    rootpi = math.sqrt(math.pi)
    cosfac = math.cos(math.pi * m)
    if which == "2.3":
        return gr * cmath.sqrt(2.0 * p) * (1.0 / rootpi), 0.0
    if which == "2.4":
        stated = gr * cmath.sqrt(2.0 * p) * cosfac / math.pi
    elif which == "2.5":
        stated = gr * 2.0 ** (mu - 0.5) * principal_power(p, 0.5 - mu) / rootpi
    elif which == "2.6":
        stated = gr * principal_power(2.0 * p, 0.5 - mu) * cosfac / math.pi
    elif which == "2.7":
        stated = gr * principal_power(p, 0.5 - mu) * 2.0 ** (2.0 * mu - 1.5) / math.pi**1.5
    else:
        raise DomainError(f"unknown form {which!r}; expected one of {THEOREM1_FORMS}")
    row, form_mu = _row(_FORM_IDENTITY[which], mu)
    return stated / row.constant(m, form_mu), form_mu


# a Meijer trial's 14 Theorem-1 forms share one input and take four mu
# (0 and the three nonzero ``suites.MU_VALUES``), so four entries hold a
# trial's integrals and the next trial's input replaces them
@functools.lru_cache(maxsize=4)
def _g_form_integral(inp: ExtendedAppellInput, mu: float) -> complex:
    """int t^(b1+mu-3/2) (1-t)^(c1-b1+mu-3/2) (1-xt)^-b2 (1-yt)^-b3 w^mu K_m(w) dt.

    The Appell-weighted kernel integral of ``ExtendedBetaFamily.appell_sum``
    at shifted exponents, with its sqrt(2p/pi) divided back out.  w^mu is
    evaluated at each node, not cancelled by hand: the mu cancellation is
    part of what the check exercises.
    """
    a, ext = inp.appell, inp.ext
    fam = ExtendedBetaFamily(a.b1 + mu, a.c1 - a.b1 + mu, ext.p, ext.nu)
    return fam.appell_sum(a.b2, a.b3, a.x, a.y, 1.0 / cmath.sqrt(2.0 * ext.p / cmath.pi), mu)


def verify_theorem1(which: str, inp: ExtendedAppellInput, mu: float = 0.0) -> complex:
    """The G-form side of Theorem-1 representation ``which`` of
    F_{1,p,nu}(inp), checked against ``f1pv_integral(inp)``.

    The G factor is rewritten through its (corrected) K identity -- exact
    algebra -- so the check certifies the prefactor/power bookkeeping of
    each representation; the K-G identities certify the G evaluator.
    Forms 2.4 and 2.6 raise ``DegenerateIdentity`` at integer nu.  Like
    that side, it is defined on the Euler domain (``check_euler_domain``).
    """
    a = inp.appell
    check_euler_domain(a.b1, a.c1, a.x, a.y)
    which = str(which)
    if which in ("2.4", "2.6") and abs(math.cos(math.pi * (inp.ext.nu + 0.5))) < 1e-9:
        raise DegenerateIdentity("cos(pi (nu+1/2))=0 degeneracy")
    pref, form_mu = _theorem1_pieces(which, inp, float(mu))
    return pref * _g_form_integral(inp, form_mu)
