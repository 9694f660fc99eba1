"""Mixed-norm conditions on operator phase tables, and the empirical
operator norms they dominate.

For an operator T with windows g1, g2, the table

    B[nu1, nu2] = (pi(nu2) g2, T pi(nu1) g1)

carries everything the windows can see of T.  Its mixed (p, q) norm --
inner exponent p over the domain index, outer exponent q over the
codomain index, both weighted by the phase-space weights -- is a
computable condition number: scaled by ||g1||_2^{-2} it dominates the
empirical operator norm from the p-conjugate modulation norm on the
domain into the q modulation norm on the codomain, for windows closed
under conjugation (real windows in particular).  It is read off one
streamed pass over B (kernels.operator_phase_sums, the per-p column
sums of |B|^p); the whole table is never held.

The domination is generally strict; for the identity operator at
p = q = 2 the empirical norm is exactly 1 while the condition number
grows like sqrt(order), a gap worth logging rather than hiding.  At
p = q = 2 Moyal's identity gives the condition in closed form,
||g2||_2 ||K||_HS / ||g1||_2 with ||K||_HS^2 = sum |K|^2 w1 w2; the tests
check the pass against it at order 64, where the full table is 256 MB.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GroupMismatchError, as_integer
from .groups import Group
from .kernels import KernelOperator, operator_phase_sums
from .signals import Signal, l2_norm
from .transform import (
    PhaseTable,
    mod_norms,
    require_exponent,
    stft_invert,
    weighted_pnorm,
)

__all__ = [
    "conjugate_exponent",
    "mpq_bounds",
    "empirical_mpq_opnorms",
    "stft_probes",
]


def conjugate_exponent(p) -> float:
    """The exponent p' with 1/p + 1/p' = 1; maps 1 <-> inf and fixes 2."""
    require_exponent(p)
    if p == math.inf:
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def mpq_bounds(op: KernelOperator, g1: Signal, g2: Signal, ps, qs) -> np.ndarray:
    """Conditions ||g1||_2^{-2} * (mixed (p, q) norm of the operator phase
    table), exponent p across the domain phase space (inner), q across
    the codomain (outer), shaped (len(ps), len(qs)); each entry is an
    upper bound for the matching entry of empirical_mpq_opnorms when g1
    is closed under conjugation.  One pass over the table serves the
    whole grid: the inner p-norms finish its per-p column sums.
    WindowError before the pass when g1 or g2 is identically zero."""
    for p in (*ps, *qs):
        require_exponent(p)
    sums = operator_phase_sums(op, g1, g2, ps)
    out = np.empty((len(ps), len(qs)))
    for i, (p, acc) in enumerate(zip(ps, sums.col_powers)):
        inner = acc if p == math.inf else (acc * op.domain.phase_weight) ** (1.0 / p)
        for j, q in enumerate(qs):
            out[i, j] = weighted_pnorm(inner, op.codomain.phase_weight, q, axis=0)
    return out / l2_norm(g1) ** 2


def empirical_mpq_opnorms(
    op: KernelOperator, g1: Signal, g2: Signal, ps, qs, probes
) -> np.ndarray:
    """Entry [i, j]: max over probes of mod_norm(T s, g2, q) /
    mod_norm(s, g1, p'), the observed norm of T from the p-conjugate
    modulation space into the q one, for p = ps[i] and q = qs[j]; shaped
    (len(ps), len(qs)) like mpq_bounds.  Each probe's two bilinear tables
    are built once for the whole grid.  For each p, probes with vanishing
    denominator are skipped; if all vanish, ValueError."""
    for p in (*ps, *qs):
        require_exponent(p)
    p_conjs = [conjugate_exponent(p) for p in ps]
    best = np.full((len(ps), len(qs)), -math.inf)
    live = np.zeros(len(ps), dtype=bool)
    for s in probes:
        if s.group != op.domain:
            raise GroupMismatchError("probe lives off the operator's domain")
        dens = mod_norms(s, g1, p_conjs)
        nums = np.array(mod_norms(op.apply(s), g2, qs))
        for i, den in enumerate(dens):
            if den <= 1e-300:
                continue
            live[i] = True
            best[i] = np.maximum(best[i], nums / den)  # keeps a NaN
    if not live.all():
        raise ValueError("every probe had vanishing modulation norm")
    return best


def stft_probes(group: Group, window: Signal, seed: int, count: int = 4) -> list:
    """Probe signals synthesized from seeded random phase tables, so the
    probe energy is spread over all of phase space rather than pinned to
    a few points; count is an integer >= 0."""
    if window.group != group:
        raise GroupMismatchError("window lives on the wrong group")
    count = as_integer(count, "a probe count")
    if count < 0:
        raise ValueError(f"a probe count must not be negative, got {count!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = group.order
    probes = []
    for _ in range(count):
        table = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        probes.append(stft_invert(window, PhaseTable(group, table)))
    return probes
