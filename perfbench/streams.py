"""Seeded op lists for the benchmark workloads.

A run executes a fixed list of ops built from ``(workload, seed,
seconds)``: the same arguments give the same ops, so two runs of the
same code attempt, and fail, exactly the same ops whatever the speed of
the machine.  The list is sized by ``run_size`` to take about
``seconds`` at the speed the package had when the benchmark was added.
Series and integral lists come in blocks of fixed composition
(stratified sampling), and a Mellin run's points form a Latin hypercube
over the whole run, so that two seeds differ in their points but not in
their mix.  That keeps the run-to-run spread of throughput small without
narrowing the domain.

Only plain numbers live here; ``run.py`` turns them into the package's
input objects, so this module never imports the code under test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

WORKLOADS = ("series", "integral", "mellin", "verify")
_WORKLOAD_IDS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# series / integral: one block of 16 points has 16 log-p strata, exactly
# one complex p and exactly four integer nu (half-odd kernel order)
BLOCK = 16
P_LO, P_HI = 0.25, 12.0
NU_MAX = 4.0
INTEGER_NUS = (1, 2, 3)
ARG_P_MAX = 1.0  # run-length cap, not a supported-range claim (see README)
N_INTEGER_NU = 4
COMPLEX_GROUP = 8
SERIES_XY = (-0.8, 0.8)
INTEGRAL_XY = (-4.0, 0.99)

# accuracy panel: one real-p point per log-p band from the first blocks,
# plus the first complex-p point
PANEL_BANDS = 8
PANEL_BLOCKS = 4

# mellin: the suites' sampling box
MELLIN_P = (0.25, 4.0)
MELLIN_NU = (0.0, 2.0)
MELLIN_XY = 0.8
MELLIN_SHIFTS = (0.6, 1.1, 2.0)
MELLIN_CYCLE = len(MELLIN_SHIFTS) + 1  # three forward ops, then one inverse

VERIFY_SUITES = ("routes", "transform", "diff", "recursion", "bound", "meijer", "reduction")

# run size: ops per second of --seconds (the package's median throughput,
# rounded, when the benchmark was added, on a shared 2-vCPU 2.1 GHz Xeon
# host), in whole units of each workload's mix, with a floor that keeps
# the series/integral accuracy panel inside the run
RATES = {"series": 66.0, "integral": 255.0, "mellin": 1.2, "verify": 16.0}
UNITS = {"series": BLOCK, "integral": BLOCK, "mellin": MELLIN_CYCLE,
         "verify": len(VERIFY_SUITES)}
MIN_UNITS = {"series": PANEL_BLOCKS, "integral": PANEL_BLOCKS, "mellin": 1, "verify": 1}


@dataclass(frozen=True)
class Point:
    """One F_{1,p,nu} input: Appell parameters, variables and (p, nu)."""

    b1: float
    b2: float
    b3: float
    c1: float
    x: float
    y: float
    p: complex
    nu: float

    def key(self) -> str:
        """Exact text key (floats by repr) for reference caching."""
        return repr((self.b1, self.b2, self.b3, self.c1, self.x, self.y,
                     self.p.real, self.p.imag, self.nu))


@dataclass(frozen=True)
class Op:
    """One benchmark op: ``kind`` names the call, ``point`` its input.

    kinds: ``series``, ``integral`` (F_{1,p,nu} by that route),
    ``forward`` (numeric Mellin transform at ``s``), ``inverse`` (contour
    inversion at the point's p) and ``suite`` (``run_suite(suite, 1,
    suite_seed)``).
    """

    index: int
    kind: str
    point: Point | None = None
    s: float | None = None
    suite: str | None = None
    suite_seed: int | None = None


def _rng(seed: int, workload: str, block: int) -> np.random.Generator:
    # block < 0 keys the per-group draws; SeedSequence needs non-negative words
    return np.random.default_rng([int(seed), _WORKLOAD_IDS[workload], int(block < 0),
                                  abs(int(block))])


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in (0, 1), one per stratum [k/n, (k+1)/n), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def p_band(p: complex) -> int:
    """Index of the equal-width log-|p| panel band of (P_LO, P_HI) holding p."""
    u = math.log(abs(p) / P_LO) / math.log(P_HI / P_LO)
    return min(PANEL_BANDS - 1, max(0, int(u * PANEL_BANDS)))


def f1_block(seed: int, workload: str, block: int) -> list[Point]:
    """The 16 points of one series/integral block.

    Complex-p ops cost up to 100 times more than real ones, so their |p|
    and arg p are also stratified, across each group of COMPLEX_GROUP
    blocks: block j of a group puts its complex point in log-|p| band
    perm[j] and arg band perm2[j].
    """
    group = _rng(seed, workload, -1 - block // COMPLEX_GROUP)
    j = block % COMPLEX_GROUP
    p_band_c = int(group.permutation(COMPLEX_GROUP)[j])
    arg_band = int(group.permutation(COMPLEX_GROUP)[j])
    rng = _rng(seed, workload, block)
    lo, hi = SERIES_XY if workload == "series" else INTEGRAL_XY
    strata = rng.permutation(BLOCK)
    p_abs = P_LO * (P_HI / P_LO) ** ((strata + rng.random(BLOCK)) / BLOCK)
    per_band = BLOCK // COMPLEX_GROUP
    complex_slot = int(np.flatnonzero(strata // per_band == p_band_c)[rng.integers(per_band)])
    others = [int(s) for s in rng.permutation(BLOCK) if s != complex_slot]
    integer_slots = set(others[:N_INTEGER_NU])
    points = []
    for i in range(BLOCK):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2.0, 2.0, 2)
        x, y = rng.uniform(lo, hi, 2)
        if i in integer_slots:
            nu = float(rng.choice(INTEGER_NUS))
        else:
            nu = rng.uniform(0.0, NU_MAX)
        p = complex(p_abs[i])
        if i == complex_slot:
            u = (arg_band + rng.random()) / COMPLEX_GROUP
            p *= cmath.exp(1j * ARG_P_MAX * (2.0 * u - 1.0))
        points.append(Point(float(b1), float(b2), float(b3), float(c1),
                            float(x), float(y), p, float(nu)))
    return points


def mellin_points(seed: int, kind: int, count: int) -> list[Point]:
    """``count`` points of the suites' box for the ops of one kind
    (0 forward, 1 inverse) in a run.

    r = max(|x|, |y|) sets the number of diagonals and so most of an op's
    cost, and a positive x or y of modulus r costs about 10 % more than a
    negative one.  (r^2, p, nu, b1, c1 - b1, b2, b3, the other variable
    over r) form a Latin hypercube over the run, one point per stratum of
    each, and the sign of the larger variable and which of x, y it is are
    balanced, so even a run's dozen ops cover the box evenly.  The other
    variable is uniform on (-r, r), which keeps (x, y) uniform on the
    square.
    """
    rng = np.random.default_rng([int(seed), _WORKLOAD_IDS["mellin"], kind, count])
    u = [_stratified(rng, count) for _ in range(8)]
    positive = rng.permutation(count) % 2 == 0
    x_big = rng.permutation(count) % 2 == 0
    points = []
    for i in range(count):
        r = MELLIN_XY * math.sqrt(u[0][i])
        p = MELLIN_P[0] + (MELLIN_P[1] - MELLIN_P[0]) * u[1][i]
        nu = MELLIN_NU[0] + (MELLIN_NU[1] - MELLIN_NU[0]) * u[2][i]
        b1 = 0.5 + 2.5 * u[3][i]
        c1 = b1 + 0.5 + 2.5 * u[4][i]
        b2, b3 = -2.0 + 4.0 * u[5][i], -2.0 + 4.0 * u[6][i]
        big = r if positive[i] else -r
        other = r * (2.0 * u[7][i] - 1.0)
        x, y = (big, other) if x_big[i] else (other, big)
        points.append(Point(float(b1), float(b2), float(b3), float(c1), float(x),
                            float(y), complex(p), float(nu)))
    return points


def _mellin_ops(seed: int, n: int) -> list[Op]:
    """The suite's mix, three forward ops per inverse op, every op at a
    new point."""
    kinds = [int(i % MELLIN_CYCLE == MELLIN_CYCLE - 1) for i in range(n)]
    pts = [iter(mellin_points(seed, kind, kinds.count(kind))) for kind in (0, 1)]
    out = []
    for i, kind in enumerate(kinds):
        pt = next(pts[kind])
        if kind:
            out.append(Op(i, "inverse", pt))
        else:
            out.append(Op(i, "forward", pt, s=pt.nu + MELLIN_SHIFTS[i % MELLIN_CYCLE]))
    return out


def run_size(workload: str, seconds: float) -> int:
    """Number of ops in a run of ``seconds``: whole units of the mix."""
    unit = UNITS[workload]
    return unit * max(MIN_UNITS[workload], round(seconds * RATES[workload] / unit))


def ops(workload: str, seed: int, n: int) -> list[Op]:
    """The n ops of a run (for series, integral and verify, also the
    first n of every longer run)."""
    if workload not in _WORKLOAD_IDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "mellin":
        return _mellin_ops(seed, n)
    out: list[Op] = []
    block = 0
    while len(out) < n:
        if workload in ("series", "integral"):
            batch = [Op(0, workload, pt) for pt in f1_block(seed, workload, block)]
        else:
            batch = [Op(0, "suite", suite=name,
                        suite_seed=int(seed) * 1_000_000 + len(out) + j)
                     for j, name in enumerate(VERIFY_SUITES)]
        out += [replace(op, index=len(out) + j) for j, op in enumerate(batch)]
        block += 1
    return out[:n]


def panel(workload: str, seed: int) -> list[int]:
    """Indices of the series/integral accuracy panel, in stream order.

    One real-p op per log-|p| band (so the top band, p > 7.7, is always
    in), drawn from the first PANEL_BLOCKS blocks, plus the first op with
    complex p.
    """
    head = ops(workload, seed, PANEL_BLOCKS * BLOCK)
    rng = np.random.default_rng([int(seed), _WORKLOAD_IDS[workload], 999_983])
    chosen = []
    for band in range(PANEL_BANDS):
        cands = [op.index for op in head
                 if op.point.p.imag == 0.0 and p_band(op.point.p) == band]
        chosen.append(int(rng.choice(cands)))
    chosen.append(next(op.index for op in head if op.point.p.imag != 0.0))
    return sorted(chosen)
