"""Exact time-frequency analysis on finite abelian groups.

Signals on products of cyclic groups, their shifts, modulations and
Fourier transforms; phase-space transforms and modulation norms; an
exact operator <-> kernel calculus; Gabor frames with duals, tight
windows and operator expansions; regularizing nets with convergence
certificates; and mixed-norm condition numbers for operators between
modulation spaces.  Every identity the package claims is checkable in
exact finite-dimensional arithmetic, and the test suite does so against
independent dense oracles.
"""

from .errors import (
    ConfigError,
    FrameError,
    GroupMismatchError,
    LatticeError,
    WindowError,
)
from .groups import (
    Group,
    Lattice,
    PhasePoint,
    character_rows,
    character_table,
    make_group,
    make_lattice,
    phase_space,
    product_group,
)
from .signals import (
    Signal,
    constant,
    convolve,
    dirac,
    fourier,
    gauss,
    inner,
    inv_fourier,
    involute,
    l1_norm,
    l2_norm,
    modulate,
    pair_bilinear,
    pointwise,
    random_signal,
    sup_norm,
    tensor,
    tf_shift,
    translate,
)
from .transform import (
    PhaseTable,
    m1_norm,
    mod_norm,
    mod_norm_conv,
    mod_norms,
    pairing_table,
    phase_points,
    stft,
    stft_invert,
    window_equivalence_ratio,
)
from .kernels import (
    KernelOperator,
    PhaseSums,
    TensorExpansion,
    bilinear_form,
    compose,
    fourier_operator,
    identity_operator,
    inv_fourier_operator,
    kernel_from_operator,
    kernel_signal,
    operator_m1_norm,
    operator_matrix,
    operator_minf_norm,
    operator_phase_sums,
    rank_one,
    tensor_expand,
    weak_reconstruct,
)
from .frames import (
    GaborSystem,
    OperatorExpansion,
    atomic_expand,
    atomic_operator_expand,
    canonical_dual,
    frame_bounds,
    gabor_synthesize,
    partial_frame_sum,
    tight_window,
)
from .regnets import (
    ComposeApproxReport,
    RegNet,
    RegularizingReport,
    box_mask,
    check_regularizing,
    compose_approx,
    cp_operator,
    gabor_partial_net,
    induced_norms,
    localization_net,
    pair_weak,
    pc_net,
    pc_operator,
    plateau_window,
    sandwich,
    spike_window,
    standard_probes,
)
from .modspaces import (
    conjugate_exponent,
    empirical_mpq_opnorms,
    mpq_bounds,
    stft_probes,
)

__version__ = "0.1.0"
