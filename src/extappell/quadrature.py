"""Reusable integration engines.

Three engines, all built on trapezoidal sums over doubly-exponentially
decaying transformed integrands:

* ``integrate_unit_interval`` -- tanh-sinh on (0, 1),
* ``integrate_semi_infinite`` -- exp-sinh on (0, inf),
* ``integrate_vertical_line`` -- adaptive truncated trapezoid in the
  imaginary direction for Mellin-Barnes / inverse-Mellin integrands,
  taken as functions of tau = Im(s) alone (no abscissa argument).

Integrands are vectorized callables: they receive NumPy arrays of nodes
and must return an array of values (real or complex).  The unit-interval
engine also hands the integrand the exact complement ``1 - t`` so that
factors like ``(1-t)**(y-3/2)`` stay accurate next to the right endpoint.
The tanh-sinh and exp-sinh engines also integrate a stack of integrands
sharing the nodes: an integrand returning shape (rows, nodes) gets one
value per row, and refinement goes on until every row passes the test.

Node tables are computed once per refinement level and cached, and so
is one block per engine holding levels 0-2 concatenated: ``_refine``
never stops before level 2, so the tanh-sinh and exp-sinh engines sample
those levels in one integrand call and split the values back per level.
Engines are stateless apart from those immutable tables and blocks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

# tau range chosen so the closest node to an endpoint keeps t and 1-t
# representable (pi*sinh(6) ~ 634, exp(-634) ~ 2.6e-276)
_TAU_MAX_UNIT = 6.0
# exp-sinh range: deep toward u -> 0 (algebraic blow-up needs it), but only
# u <~ 1.3e15 on the right so integrands may square/cube u without overflow;
# the edge-tail guard below catches anything decaying too slowly for that
_V_MIN_SEMI = -6.8
_V_MAX_SEMI = 4.25
_ENV_LEVELS = "APPELL_QUAD_LEVELS"
# the level-difference test first runs at this level, so levels 0..this
# always run and are sampled as one block
_FIRST_TEST_LEVEL = 2
# exponent magnitude beyond which integrands treat themselves as exactly
# zero (callers consult it when fusing log-domain factors); 745 is the
# double-precision underflow threshold for exp
ENDPOINT_CUTOFF = 745.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by the engines."""

    target_rel_tol: float = 1e-10
    max_levels: int = 12

    def __post_init__(self):
        if not self.target_rel_tol > 0.0:
            raise DomainError("target_rel_tol must be positive")
        if not (1 <= self.max_levels <= 16):
            raise DomainError("max_levels must lie in 1..16")


def env_int(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, else ``default``.

    Raises
    ------
    UsageError
        If the variable is set to anything but a positive integer.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    if not raw.strip().isdigit() or int(raw) < 1:
        raise UsageError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def default_config(target_rel_tol: float = 1e-10) -> QuadratureConfig:
    """Config with the level budget taken from APPELL_QUAD_LEVELS."""
    levels = env_int(_ENV_LEVELS, 12)
    return QuadratureConfig(target_rel_tol=target_rel_tol, max_levels=min(levels, 16))


@dataclass(frozen=True)
class QuadratureResult:
    """``value`` is an array, one entry per row, for a stacked integrand."""

    value: complex
    abs_error_estimate: float
    nodes_used: int
    converged: bool = True


# --------------------------------------------------------------------------
# node tables
# --------------------------------------------------------------------------

_unit_tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
_semi_tables: list[tuple[np.ndarray, np.ndarray]] = []


def _unit_level(level: int):
    """(t, 1-t, weight) for the nodes new at `level` of the tanh-sinh rule.

    t(tau) = sigmoid(pi * sinh(tau)); dt/dtau = pi * cosh(tau) * t * (1-t).
    Level 0 holds the integer abscissae, level L > 0 the odd multiples of
    2**-L, all within |tau| <= _TAU_MAX_UNIT.
    """
    while len(_unit_tables) <= level:
        lvl = len(_unit_tables)
        h = 2.0 ** (-lvl)
        if lvl == 0:
            ks = np.arange(-int(_TAU_MAX_UNIT), int(_TAU_MAX_UNIT) + 1)
            tau = ks * 1.0
        else:
            kmax = int(math.floor(_TAU_MAX_UNIT / h))
            ks = np.arange(-kmax, kmax + 1)
            tau = ks[ks % 2 != 0] * h
        u = math.pi * np.sinh(tau)
        eu = np.exp(-np.abs(u))
        near = eu / (1.0 + eu)
        far = 1.0 / (1.0 + eu)
        t = np.where(u >= 0, far, near)
        tc = np.where(u >= 0, near, far)
        w = math.pi * np.cosh(tau) * t * tc
        for a in (t, tc, w):
            a.flags.writeable = False
        _unit_tables.append((t, tc, w))
    return _unit_tables[level]


def _semi_level(level: int):
    """(u, weight) new at `level` of the exp-sinh rule on (0, inf).

    u(v) = exp(sinh(v)); du/dv = u * cosh(v).  Handles algebraic behavior
    at 0 and (super)exponential decay at infinity.
    """
    while len(_semi_tables) <= level:
        lvl = len(_semi_tables)
        h = 2.0 ** (-lvl)
        if lvl == 0:
            ks = np.arange(int(_V_MIN_SEMI), int(_V_MAX_SEMI) + 1)
            v = ks * 1.0
        else:
            ks = np.arange(math.ceil(_V_MIN_SEMI / h), math.floor(_V_MAX_SEMI / h) + 1)
            v = ks[ks % 2 != 0] * h
        s = np.sinh(v)
        u = np.exp(s)
        w = u * np.cosh(v)
        for a in (u, w):
            a.flags.writeable = False
        _semi_tables.append((u, w))
    return _semi_tables[level]


_blocks: dict = {}


def _block(table, top: int):
    """Levels 0..top of a node table as one set of arrays, and the offsets.

    ``table(level)`` gives a level's node arrays, the weights last; the
    block concatenates each array over the levels, and level L occupies
    ``offsets[L]:offsets[L + 1]``.  Blocks are cached and read-only, so
    integrands may key caches on the identity of their node arrays.
    """
    key = (table, top)
    if key not in _blocks:
        levels = [table(lvl) for lvl in range(top + 1)]
        arrays = tuple(np.concatenate(cols) for cols in zip(*levels))
        for a in arrays:
            a.flags.writeable = False
        offsets = np.cumsum([0] + [lvl[-1].size for lvl in levels]).tolist()
        _blocks[key] = (arrays, offsets)
    return _blocks[key]


def _weighted(fvals: np.ndarray, w: np.ndarray) -> np.ndarray:
    # exact zeros from integrand cutoffs must not meet huge weights
    fvals = np.asarray(fvals)
    if fvals.shape[-1:] != w.shape or fvals.ndim > 2:
        raise DomainError("integrand returned an array of the wrong shape")
    if np.any(~np.isfinite(fvals)):
        raise DomainError("non-finite integrand sample at an interior node")
    out = np.zeros(
        fvals.shape, dtype=complex if np.iscomplexobj(fvals) else float
    )
    np.multiply(fvals, w, out=out, where=fvals != 0)
    return out


def _row_sums(weighted: np.ndarray):
    """Sum over the nodes: a complex, or one complex per row of a stack."""
    if weighted.ndim == 2:
        return weighted.sum(axis=1).astype(complex)
    return complex(weighted.sum())


def _every(passed) -> bool:
    """A test's verdict: for a stack, every row must pass."""
    return passed if isinstance(passed, bool) else bool(passed.all())


def _tail_estimate(inner: float, outer: float) -> float:
    """Geometric tail guess from the two outermost level-0 contributions.

    Nonzero weighted samples at the edge of the node table mean the rule
    may be missing integrand mass beyond it; level refinement cannot see
    that, so the engines downgrade ``converged`` when this estimate is
    not negligible.
    """
    if outer == 0.0:
        return 0.0
    if inner == 0.0 or outer >= 0.75 * inner:
        return math.inf
    rho = outer / inner
    return outer * rho / (1.0 - rho)


def integrate_unit_interval(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Tanh-sinh integral of ``f`` over (0, 1).

    Parameters
    ----------
    f : callable(t, tc) -> array
        Vectorized integrand; ``tc`` is the exactly-computed ``1 - t``.
    cfg : QuadratureConfig, optional

    Levels are doubled until the successive-level difference drops below
    ``target_rel_tol * (1 + |value|)``; if the budget runs out the best
    value is returned with ``converged=False`` (callers decide whether
    that is an error).  ``f`` is called once for levels 0-2 together (0-1
    with a budget of one level), on one cached block of nodes, and then
    once per further level.
    """
    cfg = cfg or default_config()
    return _refine(lambda nodes: f(nodes[0], nodes[1]), _unit_level, cfg)


def integrate_semi_infinite(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Exp-sinh integral of ``f`` over (0, inf).

    ``f`` receives an array of abscissae u > 0.  Integrands must decay
    at least exponentially at infinity (after the log substitution) and
    may blow up algebraically but integrably at 0.  Levels are sampled as
    in ``integrate_unit_interval``.
    """
    cfg = cfg or default_config()
    return _refine(lambda nodes: f(nodes[0]), _semi_level, cfg)


def _edge_tail(level0: np.ndarray):
    """The larger of the two edge-tail estimates, per row of a stack.

    A stack takes ``_tail_estimate`` elementwise over its rows, with the
    same IEEE operations (complex magnitudes by ``hypot``, as ``abs``
    takes them; numpy's vector complex ``abs`` may differ in the last bit).
    """
    if level0.ndim == 1:
        return max(
            _tail_estimate(abs(level0[1]), abs(level0[0])),
            _tail_estimate(abs(level0[-2]), abs(level0[-1])),
        )
    edges = level0[:, [1, 0, -2, -1]]
    edges = np.hypot(edges.real, edges.imag) if np.iscomplexobj(edges) else np.abs(edges)
    inner, outer = edges[:, 0::2], edges[:, 1::2]
    decays = outer < 0.75 * inner  # false where inner == 0
    rho = np.divide(outer, inner, out=np.zeros_like(outer), where=decays)
    tail = outer * rho / (1.0 - rho)  # 0 where rho was left 0
    tail[~decays & (outer != 0.0)] = math.inf
    return np.maximum(tail[:, 0], tail[:, 1])


def _refine(sample, table, cfg: QuadratureConfig) -> QuadratureResult:
    """Level-doubling trapezoid sums of ``sample(nodes)`` on ``table``'s levels.

    ``table(level)`` gives a level's node arrays, the weights last.  One
    ``sample`` call covers the block of levels 0..2 (capped at the level
    budget); its values are split back per level, so the sums, tests and
    edge tail see the same per-level values as one call per level.  Every
    row of a stacked integrand must pass the level-difference test and
    the edge-tail check; ``abs_error_estimate`` is then the largest row
    error.
    """
    nodes, offsets = _block(table, min(_FIRST_TEST_LEVEL, cfg.max_levels))
    block = _weighted(sample(nodes), nodes[-1])
    level0 = block[..., :offsets[1]]
    tail = _edge_tail(level0)
    running = _row_sums(level0)
    nodes_used = level0.shape[-1]
    value_prev = running  # h = 1 at level 0
    best, err = value_prev, math.inf
    converged = False
    for level in range(1, cfg.max_levels + 1):
        if level < len(offsets) - 1:
            weighted = block[..., offsets[level]:offsets[level + 1]]
        else:
            nodes = table(level)
            weighted = _weighted(sample(nodes), nodes[-1])
        running = running + _row_sums(weighted)
        nodes_used += weighted.shape[-1]
        value = (2.0 ** (-level)) * running
        err = abs(value - value_prev)
        value_prev = value
        best = value
        if level >= _FIRST_TEST_LEVEL and _every(
            err <= cfg.target_rel_tol * (1.0 + abs(value))
        ):
            converged = True
            break
    if converged and not _every(tail <= cfg.target_rel_tol * (1.0 + abs(best))):
        converged = False
        err = np.maximum(err, tail)
    return QuadratureResult(best, float(np.max(err)), nodes_used, converged)


_PROBE_TAUS = np.array((1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0))


def _contour_values(f, taus: np.ndarray) -> np.ndarray:
    fv = np.asarray(f(taus))
    if np.any(~np.isfinite(fv)):
        raise DomainError("non-finite integrand sample on the contour")
    return fv


def integrate_vertical_line(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Trapezoid integral of ``f(tau)`` over tau in (-inf, inf).

    ``f`` is the integrand already restricted to its vertical line (the
    engine never sees the line's abscissa), parameterized by the imaginary
    part tau; it must decay at least like exp(-eta |tau|).  The truncation point is twice
    the first probe abscissa at which both tails have dropped below
    tolerance (measured decay, safety factor 2; every probe is sampled in
    one call).  Returns the plain integral in tau; any 1/(2 pi) convention
    is the caller's business.  The step starts at an eighth of the
    truncation point and halves until two levels differ by at most
    ``target_rel_tol`` (1 + |value|).

    Raises
    ------
    DomainError
        If no decay below tolerance is detected at the largest probe, or
        a sample is not finite.
    """
    cfg = cfg or default_config()
    mags = np.abs(np.asarray(f(np.concatenate([[0.0], _PROBE_TAUS, -_PROBE_TAUS]))))
    cut = cfg.target_rel_tol * max(float(mags[0]), 1.0) * 1e-2
    n = _PROBE_TAUS.size
    decayed = np.flatnonzero(np.maximum(mags[1:n + 1], mags[n + 1:]) < cut)
    if decayed.size == 0:
        raise DomainError(
            "integrand does not decay below tolerance along the contour "
            f"(no decay detected out to |tau| = {_PROBE_TAUS[-1]:g})"
        )
    trunc = 2.0 * _PROBE_TAUS[decayed[0]]

    n0 = 16
    taus = np.linspace(-trunc, trunc, n0 + 1)
    h = taus[1] - taus[0]
    fv = _contour_values(f, taus)
    nodes_used = taus.size
    inner = fv[1:-1].sum() + 0.5 * (fv[0] + fv[-1])
    value_prev = h * inner
    running = inner
    best, err = value_prev, math.inf
    for _level in range(cfg.max_levels):
        mid = taus[:-1] + 0.5 * h
        fm = _contour_values(f, mid)
        nodes_used += mid.size
        running = running + fm.sum()
        h *= 0.5
        taus = np.sort(np.concatenate([taus, mid]))
        value = h * running
        err = abs(value - value_prev)
        value_prev = value
        best = value
        if err <= cfg.target_rel_tol * (1.0 + abs(value)):
            return QuadratureResult(best, err, nodes_used, True)
    return QuadratureResult(best, err, nodes_used, False)
