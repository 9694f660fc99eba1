"""Nets of smoothing operators that converge to the identity, and the
machinery to certify that convergence.

Three constructions are provided:

  pc_net           product-convolution stages (s . g) * h with a plateau
                   g rising to 1 and an L1-normalized spike h
  localization_net masked phase-space synthesis around one window
  gabor_partial_net partial sums of a Parseval Gabor frame over growing
                   counts of lattice points

check_regularizing evaluates the four certificate conditions on a net:
(i) the final stage reproduces probes in the windowed m1 norm, (ii) the
stage operators are uniformly bounded m1 -> m1, (iii) likewise for the
sup norm, (iv) the final stage reproduces probes weakly.  The operator
norms in (ii)/(iii) are computed exactly for the phase-space lift of
each stage (analysis o T o synthesis through the window), which
dominates the norm on the embedded signal space; finiteness of the
logged values is the certificate.  induced_norms reads all of a stage's
lift norms, and the table's own phase-space L1 size, off one streamed
pass over the operator phase table per stage
(kernels.operator_phase_sums); the table itself is never held.

sandwich pushes a fixed operator through two nets stage by stage, and
compose_approx staggers two sandwiched operators to approximate a
composition; with the Fourier kernel and its inverse this reproduces the
collapse of the character sum sum_w w(y - x) to the identity kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, GroupMismatchError, WindowError
from .groups import Group, wrap_distance
from .kernels import KernelOperator, bilinear_form, compose, operator_phase_sums
from .signals import (
    Signal,
    dirac,
    fourier,
    gauss,
    l1_norm,
    l2_norm,
    pair_bilinear,
    periodized_sqdist,
    random_signal,
    shift_matrix,
)
from .transform import PhaseTable, m1_norm, phase_atoms
from .frames import GaborSystem, frame_bounds, partial_frame_sum

__all__ = [
    "RegNet",
    "pc_operator",
    "cp_operator",
    "plateau_window",
    "spike_window",
    "pc_net",
    "box_mask",
    "localization_net",
    "gabor_partial_net",
    "standard_probes",
    "induced_norms",
    "RegularizingReport",
    "check_regularizing",
    "pair_weak",
    "sandwich",
    "ComposeApproxReport",
    "compose_approx",
]


@dataclass(frozen=True)
class RegNet:
    """A finite staged net of endomorphisms of one group."""

    group: Group
    stages: tuple
    labels: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        labels = tuple(str(x) for x in self.labels)
        if len(stages) != len(labels):
            raise ValueError("one label per stage, please")
        if not stages:
            raise ValueError("a net needs at least one stage")
        for op in stages:
            if op.domain != self.group or op.codomain != self.group:
                raise GroupMismatchError("net stages must be endomorphisms of the group")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.stages)

    @property
    def final(self) -> KernelOperator:
        return self.stages[-1]


def pc_operator(h1: Signal, h2: Signal) -> KernelOperator:
    """Product then convolution: s -> (s . h1) * h2.

    Kernel K(s, t) = h1(s) h2(t - s), the sheared tensor of the pair.
    """
    if h1.group != h2.group:
        raise GroupMismatchError("factors live on different groups")
    k = h1.values[:, None] * shift_matrix(h2)
    return KernelOperator(h1.group, h1.group, k)


def cp_operator(h1: Signal, h2: Signal) -> KernelOperator:
    """Convolution then product: s -> (s * h1) . h2.

    Kernel K(s, t) = h1(t - s) h2(t), the other shear of the tensor.
    """
    if h1.group != h2.group:
        raise GroupMismatchError("factors live on different groups")
    k = shift_matrix(h1) * h2.values[None, :]
    return KernelOperator(h1.group, h1.group, k)


def plateau_window(group: Group, spread: float) -> Signal:
    """A raised-cosine plateau around 0 that widens as spread shrinks.

    For spread <= 1/2 the plateau covers the whole group and the window
    is exactly the constant 1.  The Fourier coefficient l1 norm is
    normalized to at most 1 (it equals 1 for the constant), so the
    multiplication stage never inflates.
    """
    if not spread > 0:
        raise ValueError(f"spread must be positive, got {spread}")
    dist = np.sqrt(periodized_sqdist(group))
    dmax = float(dist.max())
    u = dist * (spread / dmax) if dmax > 0 else np.zeros_like(dist)
    vals = np.where(
        u <= 0.5, 1.0, np.where(u < 1.0, 0.5 * (1.0 + np.cos(2 * np.pi * (u - 0.5))), 0.0)
    )
    window = Signal(group, vals)
    a_norm = l1_norm(fourier(window))
    if a_norm > 1.0:
        window = Signal(group, vals / a_norm)
    return window


def spike_window(group: Group, spread: float) -> Signal:
    """Periodized Gaussian normalized to ||h||_1 = 1: an approximate
    convolution unit that collapses to the unit impulse as spread -> 0."""
    g = gauss(group, spread)
    return Signal(group, g.values / l1_norm(g))


def pc_net(group: Group, spreads) -> RegNet:
    """Product-convolution net: stage s -> (s . plateau) * spike.

    spreads must be nonempty (RegNet checks), positive (plateau_window
    checks) and strictly decreasing; as they shrink the plateau rises to
    the constant 1 and the spike sharpens to the unit impulse, so the last
    stage is the identity up to floating-point underflow of the Gaussian
    tails.
    """
    spreads = [float(s) for s in spreads]
    if any(b >= a for a, b in zip(spreads, spreads[1:])):
        raise ValueError(f"spreads must be strictly decreasing, got {spreads}")
    stages = []
    labels = []
    for s in spreads:
        stages.append(pc_operator(plateau_window(group, s), spike_window(group, s)))
        labels.append(f"pc[spread={s:g}]")
    return RegNet(group, tuple(stages), tuple(labels))


def box_mask(group: Group, time_radius: float, freq_radius: float) -> PhaseTable:
    """Indicator of a centered phase-space box: wrap-around distance at
    most time_radius in every time coordinate and freq_radius in every
    frequency coordinate."""
    dist = np.max(wrap_distance(group), axis=0)
    tmask = dist <= time_radius
    fmask = dist <= freq_radius
    return PhaseTable(group, np.outer(tmask, fmask).astype(complex))


def localization_net(window: Signal, masks) -> RegNet:
    """Stages T s = sum_nu phase_weight * H(nu) <s, pi(nu) g> pi(nu) g.

    Needs ||g||_2 = 1 to 1e-10, so a NaN window fails (WindowError); the
    all-ones mask then gives the identity exactly, by the inversion formula.
    """
    if not abs(l2_norm(window) - 1.0) <= 1e-10:
        raise WindowError("localization window must be L2-normalized")
    grp = window.group
    atoms = phase_atoms(window)
    wp = grp.phase_weight
    stages = []
    labels = []
    for i, mask in enumerate(masks):
        if mask.group != grp:
            raise GroupMismatchError("mask lives on the wrong group")
        h = mask.values.ravel()
        k = ((atoms.conj() * h[:, None]).T @ atoms) * wp
        coverage = float(np.count_nonzero(h)) / h.size
        stages.append(KernelOperator(grp, grp, k))
        labels.append(f"loc[{i}:{coverage:.0%}]")
    return RegNet(grp, tuple(stages), tuple(labels))


def gabor_partial_net(system: GaborSystem, counts) -> RegNet:
    """Partial sums of a Parseval system over the first counts[i] lattice
    points (partial_frame_sum) at stage i; the full lattice gives the
    identity."""
    a, b = frame_bounds(system)
    if abs(a - 1.0) > 1e-8 or abs(b - 1.0) > 1e-8:
        raise FrameError(
            f"gabor_partial_net needs a Parseval system, bounds ({a:.3e}, {b:.3e})",
            bounds=(a, b),
        )
    stages = []
    labels = []
    for i, count in enumerate(counts):
        stages.append(partial_frame_sum(system, count))
        labels.append(f"gabor[{i}:{count}/{system.lattice.size}]")
    return RegNet(system.group, tuple(stages), tuple(labels))


def standard_probes(group: Group, seed: int) -> list:
    """Deterministic probe set of four: the impulse, the unit-spread
    Gaussian, and seeded noise from seeds seed and seed + 1."""
    noise = [random_signal(group, seed + j) for j in (0, 1)]
    return [dirac(group), gauss(group, 1.0), *noise]


def induced_norms(op: KernelOperator, g1: Signal, g2: Signal = None) -> tuple:
    """(m1, minf, m1_to_minf, b): exact norms of the phase-space lift of
    T (analysis through g2 after T after synthesis through g1; g2
    defaults to g1) between weighted-l1 coefficient spaces, between sup
    spaces, and from weighted l1 into sup, and the phase-space L1 size b
    of the table itself.  The first two bound the m1 -> m1 and
    sup-modulation operator norms; the third is the uniform bound logged
    for sandwiched nets.

    All four come from one pass over the operator phase table
    B = (pi(nu2) g2, T pi(nu1) g1) against conj g1
    (kernels.operator_phase_sums): the lift's entries are
    ||g1||^-2 * phase_weight * |B| up to the permutation w -> -w of its
    rows, so m1 is the largest row sum, minf the largest column sum (the
    p = 1 column power sums) and m1_to_minf the largest entry.  b is the
    record's m1, the same code operator_m1_norm(op, conj g1, g2) runs;
    when g1 is real it also equals operator_m1_norm(op, g1, g2), bit for
    bit.  When the kernel, g1 and g2 are real and finite, the pass runs
    its second stage on half the rows of B and mirrors the rest, so the
    four values may move in their last digits against a pass over every
    row.  WindowError before the pass when g1 or g2 is identically zero.
    """
    g2 = g1 if g2 is None else g2
    wp1, wp2 = op.domain.phase_weight, op.codomain.phase_weight
    sums = operator_phase_sums(op, Signal(g1.group, g1.values.conj()), g2, ps=(1,))
    scale = wp1 / l2_norm(g1) ** 2
    m1 = float(sums.row_peak * scale * wp2 / wp1)
    minf = float(np.max(sums.col_powers[0]) * scale)
    return m1, minf, float(sums.peak * scale / wp1), sums.m1


@dataclass(frozen=True)
class RegularizingReport:
    """Certificate data for one net against one window and probe set.
    Its maxima are np.max, which keeps a NaN, so a NaN error or norm
    fails the certificate."""

    labels: tuple
    final_m1_errors: tuple
    weak_errors: tuple
    m1_opnorms: tuple
    minf_opnorms: tuple
    tol: float

    @property
    def sup_m1_opnorm(self) -> float:
        return float(np.max(self.m1_opnorms))

    @property
    def sup_minf_opnorm(self) -> float:
        return float(np.max(self.minf_opnorms))

    @property
    def final_ok(self) -> bool:
        return bool(np.max(self.final_m1_errors) <= self.tol)

    @property
    def weak_ok(self) -> bool:
        return bool(np.max(self.weak_errors) <= self.tol)

    @property
    def bounded_ok(self) -> bool:
        return math.isfinite(self.sup_m1_opnorm) and math.isfinite(self.sup_minf_opnorm)

    @property
    def passed(self) -> bool:
        return self.final_ok and self.weak_ok and self.bounded_ok


def check_regularizing(net: RegNet, probes, window: Signal, tol: float) -> RegularizingReport:
    """Evaluate the four conditions: final-stage m1 errors on the probes,
    uniform lifted m1 and sup operator norms over the stages, and
    final-stage weak errors over probe pairs."""
    final = net.final
    m1_errors = tuple(m1_norm(final.apply(f) - f, window) for f in probes)
    weak = []
    for f in probes:
        for s in probes:
            weak.append(abs(pair_weak(final, f, s)))
    m1_ops, minf_ops, _, _ = zip(*(induced_norms(op, window) for op in net.stages))
    return RegularizingReport(
        labels=net.labels,
        final_m1_errors=m1_errors,
        weak_errors=tuple(weak),
        m1_opnorms=m1_ops,
        minf_opnorms=minf_ops,
        tol=tol,
    )


def pair_weak(op: KernelOperator, f: Signal, s: Signal) -> complex:
    """(f, T s - s): the weak defect of op against the identity."""
    return bilinear_form(op, s, f) - pair_bilinear(f, s)


def sandwich(op: KernelOperator, net1: RegNet, net2: RegNet) -> list:
    """Stage-by-stage net2[j] o op o net1[j]; nets must have equal length
    and live on the operator's domain and codomain."""
    if net1.group != op.domain or net2.group != op.codomain:
        raise GroupMismatchError("nets must live on the operator's groups")
    if len(net1) != len(net2):
        raise ValueError(f"stage counts differ: {len(net1)} vs {len(net2)}")
    return [
        compose(compose(s1, op), s2) for s1, s2 in zip(net1.stages, net2.stages)
    ]


@dataclass(frozen=True)
class ComposeApproxReport:
    """Staged approximation of a composition by sandwiched factors."""

    stages: tuple
    weak_errors: tuple
    kernel_errors: tuple
    target: KernelOperator
    tol: float

    @property
    def final_weak_error(self) -> float:
        return self.weak_errors[-1]

    @property
    def passed(self) -> bool:
        return self.final_weak_error <= self.tol


def compose_approx(
    first: KernelOperator,
    second: KernelOperator,
    nets,
    tol: float = 1e-10,
) -> ComposeApproxReport:
    """Approximate 'first then second' by composing the sandwiched stages.

    nets is a triple on (domain of first, middle group, codomain of
    second).  Weak errors pair the standard probes of the outer groups,
    at seed 0 on the domain of first and seed 100 on the codomain of
    second, against the defect from the exact composition.
    """
    net1, net2, net3 = nets
    target = compose(first, second)
    first_stages = sandwich(first, net1, net2)
    second_stages = sandwich(second, net2, net3)
    probes1 = standard_probes(first.domain, 0)
    probes2 = standard_probes(second.codomain, 100)
    stages = []
    weak = []
    kerr = []
    for s1, s2 in zip(first_stages, second_stages):
        approx = compose(s1, s2)
        stages.append(approx)
        defects = [
            abs(bilinear_form(approx, fa, fb) - bilinear_form(target, fa, fb))
            for fa in probes1
            for fb in probes2
        ]
        weak.append(float(np.max(defects)))
        kerr.append(float(np.max(np.abs(approx.kernel - target.kernel))))
    return ComposeApproxReport(
        stages=tuple(stages),
        weak_errors=tuple(weak),
        kernel_errors=tuple(kerr),
        target=target,
        tol=tol,
    )
