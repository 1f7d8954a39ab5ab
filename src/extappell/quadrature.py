"""Reusable integration engines.

Three engines, all level-doubling trapezoidal sums run by one refinement
loop, ``_refine``:

* ``integrate_unit_interval`` -- tanh-sinh on (0, 1),
* ``integrate_semi_infinite`` -- exp-sinh on (0, inf),
* ``integrate_vertical_line`` -- the plain trapezoid on a truncated
  vertical line, for Mellin-Barnes / inverse-Mellin integrands taken as
  functions of tau = Im(s) alone (no abscissa argument).  For integrands
  analytic in a strip about the line it converges geometrically, like
  the other two (Trefethen & Weideman, SIAM Rev. 56, 2014).

Every engine takes one setting, ``tol``: it stops when two successive
levels differ by at most tol (1 + |value|) and the edge-tail check
passes, within a fixed budget of ``_MAX_LEVELS`` = 12 levels; a value
that has not settled by then comes back with ``converged=False``.

Integrands are vectorized callables: they receive NumPy arrays of nodes
and must return an array of values (real or complex).  The unit-interval
engine also hands the integrand the exact complement ``1 - t`` so that
factors like ``(1-t)**(y-3/2)`` stay accurate next to the right endpoint.
The tanh-sinh and exp-sinh engines also integrate a stack of integrands
sharing the nodes: an integrand returning shape (rows, nodes) gets one
value per row, and refinement goes on until every row passes the test.
The tanh-sinh engine also integrates the moments t^k f(t), k < R, of one
integrand (``moments=R``): f returns one value per node, and each
level's R sums are one matrix-vector product of a table of the power
weights t^k w with those values.  The table depends only on the nodes,
so the one of the first-call block is cached; a deeper level builds its
own per call.  Each moment is held to the test of a stack's row.

Node tables are computed once per refinement level and cached, and so
are blocks of levels 0 to a first-call level concatenated.  ``_refine``
samples one block in its first integrand call and splits the values back
per level.  For tanh-sinh and exp-sinh the first-call level follows from
``tol`` (see ``_first_call_level``), since tanh-sinh roughly doubles its
digits per level (Bailey, Jeyabalan & Li, Exp. Math. 14, 2005).  The
line engine's first call takes levels 0 to ``_LINE_FIRST_CALL_LEVEL`` =
6 at any ``tol``: its contours stop at level 6 at the Mellin inverse's
tolerance, and they cost per call, not per node.  The stopping test
still runs at every level from the first test level,
``_FIRST_TEST_LEVEL`` = 3, on.  So the first-call level changes how many
calls a quadrature makes, never the level it stops at.  Engines are
stateless apart from those immutable tables and blocks and the blocks'
power weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# tau range chosen so the closest node to an endpoint keeps t and 1-t
# representable (pi*sinh(6) ~ 634, exp(-634) ~ 2.6e-276)
_TAU_MAX_UNIT = 6.0
# exp-sinh range: deep toward u -> 0 (algebraic blow-up needs it), but only
# u <~ 1.3e15 on the right so integrands may square/cube u without overflow;
# the edge-tail guard below catches anything decaying too slowly for that
_V_MIN_SEMI = -6.8
_V_MAX_SEMI = 4.25
# the level-difference test first runs at this level, so levels 0..this
# always run; tanh-sinh roughly doubles its digits per level, so a test
# passing at level 2 is mostly one that is slack
_FIRST_TEST_LEVEL = 3
# the last level of the line engine's first call (see ``_first_call_level``)
_LINE_FIRST_CALL_LEVEL = 6
# the level budget of every engine
_MAX_LEVELS = 12
# the tolerance of every engine unless a caller passes its own
DEFAULT_TOL = 1e-10
# exponent magnitude beyond which integrands treat themselves as exactly
# zero (callers consult it when fusing log-domain factors); 745 is the
# double-precision underflow threshold for exp
ENDPOINT_CUTOFF = 745.0


@dataclass(frozen=True)
class QuadratureResult:
    """``value`` is an array, one entry per row, for a stacked integrand.

    ``nodes_used`` counts the nodes of levels 0 to the level the
    quadrature stopped at, not every node sampled: a first call that
    samples past the stop level leaves its deeper nodes uncounted.
    """

    value: complex
    abs_error_estimate: float
    nodes_used: int
    converged: bool = True

    def converged_value(self, label: str):
        """``value``; raises ``ConvergenceError`` naming ``label`` when the
        quadrature did not converge."""
        if not self.converged:
            raise ConvergenceError(f"{label} stalled at error {self.abs_error_estimate:g}")
        return self.value


# --------------------------------------------------------------------------
# node tables
# --------------------------------------------------------------------------


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _abscissae(level: int, lo: float, hi: float) -> np.ndarray:
    """The abscissae new at ``level`` of a level-doubling rule on [lo, hi]:
    the integers at level 0, the odd multiples of 2**-level at a later level."""
    h = 2.0 ** (-level)
    ks = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    if level > 0:
        ks = ks[ks % 2 != 0]
    return ks * h


@functools.cache
def _unit_level(level: int):
    """(t, 1-t, weight) for the nodes new at `level` of the tanh-sinh rule.

    t(tau) = sigmoid(pi * sinh(tau)); dt/dtau = pi * cosh(tau) * t * (1-t),
    for tau within |tau| <= _TAU_MAX_UNIT.  t and 1-t are both formed from
    |tau| and the sign of tau, so each keeps its relative accuracy next
    to its own endpoint.
    """
    tau = _abscissae(level, -_TAU_MAX_UNIT, _TAU_MAX_UNIT)
    eu = np.exp(-math.pi * np.sinh(np.abs(tau)))
    near = eu / (1.0 + eu)
    far = 1.0 / (1.0 + eu)
    t = np.where(tau >= 0, far, near)
    tc = np.where(tau >= 0, near, far)
    w = math.pi * np.cosh(tau) * t * tc
    return _read_only(t, tc, w)


@functools.cache
def _semi_level(level: int):
    """(u, weight) new at `level` of the exp-sinh rule on (0, inf).

    u(v) = exp(sinh(v)); du/dv = u * cosh(v).  Handles algebraic behavior
    at 0 and (super)exponential decay at infinity.
    """
    v = _abscissae(level, _V_MIN_SEMI, _V_MAX_SEMI)
    u = np.exp(np.sinh(v))
    return _read_only(u, u * np.cosh(v))


@functools.cache
def _line_level(level: int):
    """(u, weight) new at `level` of the trapezoid rule on [-1, 1].

    Level 0 holds u = k/4 for |k| <= 4, the two end weights halved;
    level L > 0 the odd multiples of 2**-L / 4.  The weights carry the
    1/4 of the step, so level L's sum times 2**-L is the trapezoid sum.
    """
    u = _abscissae(level, -4.0, 4.0) / 4.0
    w = np.full(u.size, 0.25)
    if level == 0:
        w[[0, -1]] = 0.125
    return _read_only(u, w)


def _first_call_level(tol: float) -> int:
    """The last level that ``_refine``'s first integrand call samples.

    A call costs a fixed overhead, and a level sampled past the stop
    level costs its nodes for nothing, once per row of a stack.  The
    single kernel integrals run at 1e-10 and stop at levels 3 to 6,
    mostly 4 or 5, so one call for levels 0-5 pays.  The Mellin p
    batches run at 1e-9 and stop at level 4 or 5, with a row per p, so
    their first call stops at level 4.  The outer Mellin quadrature runs
    at 2e-7 and stops at level 3, and each of its nodes is a row of an
    inner batch, so its first call holds the first test level only.

    The line engine does not ask: its first call after the probes takes
    levels 0 to ``_LINE_FIRST_CALL_LEVEL`` = 6 (513 nodes) at any tol.
    Every Mellin inversion contour of the suites and the benchmark stops
    at level 6 at the default 1e-7, and the contour integrand's cost, an
    F1 diagonal sum with a row per node, grows with its calls far more
    than with its nodes.
    """
    if tol < 1e-9:
        return 5
    return 4 if tol < 1e-8 else _FIRST_TEST_LEVEL


@functools.cache
def _block(table, last: int):
    """Levels 0..``last`` of a node table as one set of arrays, and the
    offsets.

    ``table(level)`` gives a level's node arrays, the weights last; the
    block concatenates each array over the levels, and level L occupies
    ``offsets[L]:offsets[L + 1]``.  Blocks are cached by (table, last)
    and read-only, like the level tables.
    """
    levels = [table(lvl) for lvl in range(last + 1)]
    arrays = _read_only(*(np.concatenate(cols) for cols in zip(*levels)))
    offsets = np.cumsum([0] + [lvl[-1].size for lvl in levels]).tolist()
    return arrays, offsets


def _checked(fvals, w: np.ndarray, max_ndim: int) -> np.ndarray:
    """``fvals`` as an array, with one sample per node of ``w`` on its last
    axis and every sample finite."""
    fvals = np.asarray(fvals)
    if fvals.shape[-1:] != w.shape or fvals.ndim > max_ndim:
        raise DomainError("integrand returned an array of the wrong shape")
    if not np.isfinite(fvals).all():
        raise DomainError("non-finite integrand sample at an interior node")
    return fvals


def _moment_weights(nodes: tuple, rows: int) -> np.ndarray:
    """The power weights t^k w, k < ``rows``, of node arrays (t, ..., w),
    of shape (rows, nodes)."""
    t, w = nodes[0], nodes[-1]
    return np.cumprod(np.vstack([w, np.broadcast_to(t, (rows - 1, t.size))]), axis=0)


@functools.lru_cache(maxsize=8)
def _block_moment_weights(table, last: int, rows: int) -> np.ndarray:
    """``_moment_weights`` of the block ``_block(table, last)``, cached and
    read-only like the block.  A deeper level's table is built per call
    and not kept: levels 0 to 12 of a 128-row table would hold about 50 MB."""
    return _read_only(_moment_weights(_block(table, last)[0], rows))[0]


# Samples come in three shapes, each the cheaper path on a benchmark
# workload: one value per node (``integral``'s one kernel quadrature per
# op), a stack of rows (``mellin``'s p batches) and moments (``series``'s
# D(k)).  One (rows, nodes) form for all three was measured and dropped:
# on one row the stack's edge tail takes 14 us against the scalar rule's
# 1.3 us (2-core Xeon, numpy 2.4), a 193-node quadrature took 82 us
# against 33 us, and ``integral`` lost 20-30 % of its ops/s.  Moments as
# rows would cost Python code per row on ``series``'s 32-128 rows.
def _weigh(fvals, weights: np.ndarray):
    """``(products, sums)`` of one integrand call's samples ``fvals``:
    ``products(a, b)`` are the weighted samples of nodes a:b, and
    ``sums(a, b)`` their sum, a complex or one complex per row.

    ``weights`` is the call's weight array, or for moments its power
    weights t^k w of shape (R, nodes).  Moments take one sample per node,
    and a sum is one matrix-vector product; a complex f goes through a
    float64 view of shape (nodes, 2), so the table is never upcast.

    That product is the BLAS's (OpenBLAS in the numpy wheels), whose
    kernel, and so whose summation order, is picked for the CPU at run
    time.  A moment's last bits, and every bit-for-bit claim on the
    moments path (the extended-Beta family, the series route), hold per
    machine.
    """
    if weights.ndim == 1:
        # every weight is finite; C order gives a stack's row sums one
        # summation order whatever the layout of the samples (a cumprod
        # down the rows returns F order)
        weighted = np.multiply(_checked(fvals, weights, 2), weights, order="C")
        return (lambda a, b: weighted[..., a:b]), (lambda a, b: _row_sums(weighted[..., a:b]))
    f = _checked(fvals, weights[0], 1)
    if np.iscomplexobj(f):
        pairs = np.ascontiguousarray(f, dtype=complex).view(np.float64).reshape(-1, 2)

        def sums(a, b):
            return (weights[:, a:b] @ pairs[a:b]).view(complex)[:, 0]
    else:
        def sums(a, b):
            return (weights[:, a:b] @ f[a:b]).astype(complex)
    return (lambda a, b: weights[:, a:b] * f[a:b]), sums


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


def integrate_unit_interval(
    f, tol: float = DEFAULT_TOL, moments: int | None = None
) -> QuadratureResult:
    """Tanh-sinh integral of ``f`` over (0, 1).

    Parameters
    ----------
    f : callable(t, tc) -> array
        Vectorized integrand; ``tc`` is the exactly-computed ``1 - t``.
        Every ``t`` and ``tc`` it receives is a cached, read-only node
        array.
    tol : float
        Levels are doubled until the successive-level difference drops
        below ``tol * (1 + |value|)``.
    moments : int, optional
        With ``moments=R`` the result holds the R integrals of t^k f(t),
        k < R, and ``f`` returns one value per node.  Each moment is held
        to the test of one row of a stack; the power weights t^k w of the
        first-call block are cached (see ``_weigh``).

    If the level budget runs out the best value is returned with
    ``converged=False`` (callers decide whether that is an error).  ``f``
    is called once for levels 0 to the first-call level together, on one
    cached block of nodes, and then once per further level.  That level
    follows from ``tol`` (see ``_first_call_level``); the stopping test
    runs from the first test level on either way, so the first-call
    level sets the number of calls, not the level the quadrature stops at.
    """
    return _refine(lambda nodes: f(nodes[0], nodes[1]), _unit_level, tol, moments)


def integrate_semi_infinite(f, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Exp-sinh integral of ``f`` over (0, inf).

    ``f`` receives an array of abscissae u > 0.  Integrands must decay
    at least exponentially at infinity (after the log substitution) and
    may blow up algebraically but integrably at 0.  Levels are sampled as
    in ``integrate_unit_interval``.
    """
    return _refine(lambda nodes: f(nodes[0]), _semi_level, tol)


def _edge_tail(level0: np.ndarray):
    """The larger of the two edge-tail estimates, per row of a stack.

    A stack takes ``_tail_estimate`` elementwise over its rows.
    """
    if level0.ndim == 1:
        return max(
            _tail_estimate(abs(level0[1]), abs(level0[0])),
            _tail_estimate(abs(level0[-2]), abs(level0[-1])),
        )
    edges = abs(level0[:, [1, 0, -2, -1]])
    inner, outer = edges[:, 0::2], edges[:, 1::2]
    decays = outer < 0.75 * inner  # false where inner == 0
    rho = np.divide(outer, inner, out=np.zeros_like(outer), where=decays)
    tail = outer * rho / (1.0 - rho)  # 0 where rho was left 0
    tail[~decays & (outer != 0.0)] = math.inf
    return np.maximum(tail[:, 0], tail[:, 1])


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")


def _refine(sample, table, tol: float, moments: int | None = None,
            last: int | None = None) -> QuadratureResult:
    """Level-doubling trapezoid sums of ``sample(nodes)`` on ``table``'s levels.

    ``table(level)`` gives a level's node arrays, the abscissae first and
    the weights last.  The first ``sample`` call covers the block of
    levels 0 to ``last`` (by default ``_first_call_level(tol)``), later
    calls one level each.
    The block's values are split back per level, so the sums, tests and
    edge tail see the same per-level values as one call per level, and the
    level-difference test runs at every level from ``_FIRST_TEST_LEVEL``
    on: a quadrature stops at the same level, with the same
    ``nodes_used``, whatever the first-call level.  Every row of a
    stacked integrand, or every moment with ``moments``, must pass the
    level-difference test and the edge-tail check; ``abs_error_estimate``
    is then the largest row error.

    Raises
    ------
    DomainError
        If ``tol`` or ``moments`` is not positive, or a sample is not finite.
    """
    _check_tol(tol)
    if moments is not None and not moments >= 1:
        raise DomainError(f"the number of moments must be positive, got {moments}")
    last = _first_call_level(tol) if last is None else last
    nodes, offsets = _block(table, last)
    weights = nodes[-1] if moments is None else _block_moment_weights(table, last, moments)
    products, sums = _weigh(sample(nodes), weights)
    tail = _edge_tail(products(0, offsets[1]))
    running = sums(0, offsets[1])
    nodes_used = offsets[1]
    value_prev = running  # h = 1 at level 0
    best, err = value_prev, math.inf
    converged = False
    for level in range(1, _MAX_LEVELS + 1):
        if level < len(offsets) - 1:
            start, stop = offsets[level], offsets[level + 1]
        else:
            nodes = table(level)
            start, stop = 0, nodes[-1].size
            weights = nodes[-1] if moments is None else _moment_weights(nodes, moments)
            _, sums = _weigh(sample(nodes), weights)
        running = running + sums(start, stop)
        nodes_used += stop - start
        value = (2.0 ** (-level)) * running
        err = abs(value - value_prev)
        value_prev = value
        best = value
        if level >= _FIRST_TEST_LEVEL and _every(err <= tol * (1.0 + abs(value))):
            converged = True
            break
    if converged and not _every(tail <= tol * (1.0 + abs(best))):
        converged = False
        err = np.maximum(err, tail)
    return QuadratureResult(best, float(np.max(err)), nodes_used, converged)


_PROBE_TAUS = np.array((1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0))


def integrate_vertical_line(f, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Trapezoid integral of ``f(tau)`` over tau in (-inf, inf).

    ``f`` is the integrand already restricted to its vertical line (the
    engine never sees the line's abscissa), parameterized by the imaginary
    part tau; it must decay at least like exp(-eta |tau|).  The truncation
    point T is twice the first probe abscissa at which both tails have
    dropped below tol * max(|f(0)|, 1) / 100 (measured decay, safety
    factor 2; every probe is sampled in one call).  Returns the plain
    integral in tau; any 1/(2 pi) convention is the caller's business.

    The integral over [-T, T] is ``_refine``'s trapezoid sums of
    T f(T u) on u in [-1, 1], whose level 0 has step 1/4 (see
    ``_line_level``): one call for the probes, one for the block of
    levels 0 to ``_LINE_FIRST_CALL_LEVEL`` = 6 (513 nodes) at any
    ``tol``, and one per further level.  A contour that stops at level 6
    or before, as every Mellin inversion at its default tolerance does,
    takes two calls; ``nodes_used`` still counts levels 0 to the stop
    level only.

    Raises
    ------
    DomainError
        If ``tol`` is not positive, no decay below tolerance is detected
        at the largest probe, or a sample is not finite.
    """
    _check_tol(tol)
    mags = np.abs(np.asarray(f(np.concatenate([[0.0], _PROBE_TAUS, -_PROBE_TAUS]))))
    cut = tol * max(float(mags[0]), 1.0) * 1e-2
    n = _PROBE_TAUS.size
    decayed = np.flatnonzero(np.maximum(mags[1:n + 1], mags[n + 1:]) < cut)
    if decayed.size == 0:
        raise DomainError(
            "integrand does not decay below tolerance along the contour "
            f"(no decay detected out to |tau| = {_PROBE_TAUS[-1]:g})"
        )
    trunc = 2.0 * _PROBE_TAUS[decayed[0]]
    return _refine(lambda nodes: trunc * np.asarray(f(trunc * nodes[0])), _line_level, tol,
                   last=_LINE_FIRST_CALL_LEVEL)
