import math
import tracemalloc

import numpy as np
import pytest

from tfkit import kernels
from tfkit.errors import FrameError, GroupMismatchError, WindowError
from tfkit.frames import GaborSystem, frame_bounds
from tfkit.groups import make_group, make_lattice
from tfkit.kernels import (
    KernelOperator,
    fourier_operator,
    identity_operator,
    inv_fourier_operator,
    operator_m1_norm,
)
from tfkit.regnets import (
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
from tfkit.signals import (
    Signal,
    constant,
    convolve,
    dirac,
    fourier,
    gauss,
    l1_norm,
    l2_norm,
    pair_bilinear,
    pointwise,
    random_signal,
)
from tfkit.suites import merge_config, run_regnet
from tfkit.transform import PhaseTable, m1_norm, pairing_mags

from oracles import normalized_gauss, onb_system, operator_pairing_table

SPREADS = (2.0, 1.0, 0.5, 0.25)


# ---------------------------------------------------------------------------
# stage building blocks


def test_pc_operator_is_product_then_convolution():
    g = make_group((8,))
    h1, h2 = random_signal(g, 1), random_signal(g, 2)
    s = random_signal(g, 3)
    got = pc_operator(h1, h2).apply(s)
    want = convolve(pointwise(s, h1), h2)
    assert np.max(np.abs(got.values - want.values)) < 1e-12


def test_cp_operator_is_convolution_then_product():
    g = make_group((8,))
    h1, h2 = random_signal(g, 1), random_signal(g, 2)
    s = random_signal(g, 3)
    got = cp_operator(h1, h2).apply(s)
    want = pointwise(convolve(s, h1), h2)
    assert np.max(np.abs(got.values - want.values)) < 1e-12


def test_stage_factories_reject_mixed_groups():
    h1 = gauss(make_group((8,)), 1.0)
    h2 = gauss(make_group((6,)), 1.0)
    with pytest.raises(GroupMismatchError):
        pc_operator(h1, h2)
    with pytest.raises(GroupMismatchError):
        cp_operator(h1, h2)


def test_plateau_window_small_spread_is_constant_one():
    g = make_group((8,))
    w = plateau_window(g, 0.5)
    assert np.array_equal(w.values, np.ones(8))
    assert np.array_equal(plateau_window(g, 0.25).values, np.ones(8))


def test_plateau_window_fourier_l1_never_exceeds_one():
    g = make_group((12,))
    for spread in (4.0, 2.0, 1.0, 0.5):
        w = plateau_window(g, spread)
        assert l1_norm(fourier(w)) <= 1.0 + 1e-12


def test_plateau_window_large_spread_has_compact_support():
    g = make_group((16,))
    w = plateau_window(g, 4.0)
    assert np.count_nonzero(w.values) < 16
    assert w.values[0] > 0


def test_plateau_window_rejects_bad_spread():
    g = make_group((8,))
    with pytest.raises(ValueError):
        plateau_window(g, 0.0)
    with pytest.raises(ValueError):
        plateau_window(g, -1.0)


def test_spike_window_is_l1_normalized():
    g = make_group((8,))
    for spread in (2.0, 0.5, 0.1):
        assert l1_norm(spike_window(g, spread)) == pytest.approx(1.0, rel=1e-14)


def test_spike_window_convolution_preserves_mean():
    g = make_group((8,))
    s = random_signal(g, 4)
    out = convolve(s, spike_window(g, 0.7))
    assert np.sum(out.values) == pytest.approx(np.sum(s.values), rel=1e-12)


# ---------------------------------------------------------------------------
# net constructions


def test_regnet_validates_stages():
    g = make_group((4,))
    with pytest.raises(ValueError):
        RegNet(g, (), ())
    with pytest.raises(ValueError):
        RegNet(g, (identity_operator(g),), ("a", "b"))
    with pytest.raises(GroupMismatchError):
        RegNet(g, (identity_operator(make_group((5,))),), ("a",))


def test_pc_net_validates_spreads():
    g = make_group((8,))
    with pytest.raises(ValueError):
        pc_net(g, [])
    with pytest.raises(ValueError):
        pc_net(g, [1.0, -0.5])
    with pytest.raises(ValueError):
        pc_net(g, [1.0, 1.0])
    with pytest.raises(ValueError):
        pc_net(g, [0.5, 1.0])


def test_pc_net_labels_and_length():
    g = make_group((8,))
    net = pc_net(g, SPREADS)
    assert len(net) == 4
    assert net.labels == tuple(f"pc[spread={s:g}]" for s in SPREADS)
    assert net.final is net.stages[-1]


def test_pc_net_stage_errors_decrease_to_zero():
    g = make_group((8,))
    net = pc_net(g, SPREADS)
    window = normalized_gauss(g)
    f = random_signal(g, 6)
    errors = [m1_norm(stage.apply(f) - f, window) for stage in net.stages]
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier * (1 + 1e-9) + 1e-15
    assert errors[-1] < 1e-10


def test_box_mask_coverage_on_z8():
    g = make_group((8,))
    for radius, count in [(1, 9), (2, 25), (3, 49), (4, 64)]:
        mask = box_mask(g, radius, radius)
        assert mask.values.shape == (8, 8)
        assert np.count_nonzero(mask.values) == count
        assert set(np.unique(mask.values.real)) <= {0.0, 1.0}


def test_box_mask_wraps_around():
    g = make_group((8,))
    mask = box_mask(g, 1, 0)
    covered = np.nonzero(mask.values[:, 0])[0]
    assert list(covered) == [0, 1, 7]


def test_localization_net_needs_normalized_window():
    g = make_group((8,))
    with pytest.raises(WindowError):
        localization_net(gauss(g, 1.0), [box_mask(g, 4, 4)])
    with pytest.raises(WindowError):
        localization_net(Signal(g, np.full(8, np.nan)), [box_mask(g, 4, 4)])


def test_localization_net_rejects_foreign_mask():
    g = make_group((8,))
    with pytest.raises(GroupMismatchError):
        localization_net(normalized_gauss(g), [box_mask(make_group((6,)), 2, 2)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_localization_net_names_a_non_finite_mask_before_any_arithmetic(bad):
    g = make_group((8,))
    values = box_mask(g, 2, 2).values.copy()
    values[3, 1] = bad
    masks = [box_mask(g, 1, 1), PhaseTable(g, values)]
    with pytest.raises(ValueError, match="^mask 1 has an inf or NaN entry$"):
        localization_net(normalized_gauss(g), masks)


def test_localization_net_on_z128_stays_in_o_n2_memory():
    # the atom route held |G|^3 complex entries, 97 MiB here; each kernel
    # is 0.25 MiB
    g = make_group((128,))
    window = normalized_gauss(g)
    masks = [box_mask(g, r, r) for r in (16, 32, 48, 64)]
    tracemalloc.start()
    try:
        localization_net(window, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_loc_fourier_regnet_passes_over_the_net_stages_take_the_mirrored_route(monkeypatch):
    # Z/32: a mirrored pass computes 32 x 17 rows (w1 = 0, 16 and one of
    # each of 15 pairs), a full one 32 x 32.  The four sandwich stages go
    # through the Fourier kernel and are complex; the four loc stages that
    # check_regularizing passes over are real, exactly
    passes = []
    real_pass = kernels._phase_pass

    def counting_pass(*args):
        passes.append(0)
        return real_pass(*args)

    def counting_mags(window, rows, out):
        passes[-1] += len(rows)
        return pairing_mags(window, rows, out)

    monkeypatch.setattr(kernels, "_phase_pass", counting_pass)
    monkeypatch.setattr(kernels, "pairing_mags", counting_mags)
    cfg = merge_config({"regnet": {"group": [32], "construction": "loc", "target": "fourier"}})
    assert run_regnet(cfg["regnet"], 0, 1e-10).summary["certificate"]
    assert sorted(passes) == [32 * 17] * 4 + [32 * 32] * 4


def test_localization_full_mask_is_identity():
    g = make_group((8,))
    net = localization_net(normalized_gauss(g), [box_mask(g, 4, 4)])
    want = identity_operator(g).kernel
    assert np.max(np.abs(net.final.kernel - want)) < 1e-12 * np.max(np.abs(want))


def test_localization_net_labels_show_coverage():
    g = make_group((8,))
    net = localization_net(
        normalized_gauss(g), [box_mask(g, 1, 1), box_mask(g, 4, 4)]
    )
    assert net.labels == ("loc[0:14%]", "loc[1:100%]")


def test_gabor_partial_net_needs_parseval():
    g = make_group((8,))
    system = GaborSystem(gauss(g, 1.0), make_lattice(g, 1, 1))
    with pytest.raises(FrameError) as info:
        gabor_partial_net(system, [system.lattice.size])
    assert info.value.bounds == pytest.approx(frame_bounds(system), rel=1e-12)


def test_gabor_partial_net_full_exhaustion_ends_at_identity():
    grp = make_group((4,))
    system = onb_system(grp)
    assert system.lattice.size == 4
    net = gabor_partial_net(system, [1, 2, 4])
    assert net.labels[-1] == "gabor[2:4/4]"
    want = identity_operator(grp).kernel
    assert np.max(np.abs(net.final.kernel - want)) < 1e-12 * np.max(np.abs(want))


def test_standard_probes_are_deterministic():
    g = make_group((8,))
    a = standard_probes(g, 5)
    b = standard_probes(g, 5)
    assert len(a) == 4
    for f, h in zip(a, b):
        assert np.array_equal(f.values, h.values)


# ---------------------------------------------------------------------------
# lifted operator norms


def test_induced_norms_frozen_identity_values():
    # identity on Z/8 against the normalized unit-spread window; the m1
    # lift norm was computed once from a dense naive lift matrix
    g = make_group((8,))
    w = normalized_gauss(g)
    op = identity_operator(g)
    m1, minf, m1_to_minf, _ = induced_norms(op, w)
    assert m1 == pytest.approx(1.1082215897348011, rel=1e-12)
    assert minf == pytest.approx(1.1082215897348011, rel=1e-10)
    assert m1_to_minf == pytest.approx(1.0, rel=1e-12)


def test_induced_norms_reject_a_zero_window_before_the_pass(monkeypatch):
    g = make_group((8,))
    op = identity_operator(g)
    # a NaN window is no zero window: its norms are NaN, for a graded row to fail
    norms = induced_norms(op, Signal(g, np.full(8, np.nan)))
    assert all(math.isnan(value) for value in norms)
    zero, win = Signal(g, np.zeros(8)), normalized_gauss(g)
    chunks = []
    monkeypatch.setattr(kernels, "pairing_rows", lambda *a, **k: chunks.append(1))
    for g1, g2 in ((zero, win), (win, zero), (zero, None)):
        with pytest.raises(WindowError):
            induced_norms(op, g1, g2)
    assert chunks == []


def test_induced_norms_scale_linearly():
    g = make_group((8,))
    w = normalized_gauss(g)
    op = identity_operator(g)
    tripled = sandwich(op, RegNet(g, (op,), ("i",)), RegNet(g, (op,), ("i",)))[0]
    assert induced_norms(tripled, w)[0] == pytest.approx(
        induced_norms(op, w)[0], rel=1e-12
    )
    scaled = pc_operator(constant(g, 3.0), dirac(g))
    assert induced_norms(scaled, w)[0] == pytest.approx(
        3.0 * induced_norms(op, w)[0], rel=1e-10
    )


@pytest.mark.parametrize("dom_orders, cod_orders", [((8,), (8,)), ((2, 3), (2, 3)), ((8,), (2, 3))])
def test_induced_norms_reduce_the_conjugate_window_phase_table(dom_orders, cod_orders):
    # the lift's rows are those of ||g1||^-2 * phase_weight *
    # operator_pairing_table(op, conj g1, g2), with w -> -w permuting them
    dom, cod = make_group(dom_orders), make_group(cod_orders)
    rng = np.random.default_rng(17)
    shape = (dom.order, cod.order)
    op = KernelOperator(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    g1 = random_signal(dom, 3) + gauss(dom, 1.0)
    g2 = random_signal(cod, 4) + gauss(cod, 1.5)
    conj_g1 = Signal(dom, g1.values.conj())
    wp1, wp2 = dom.phase_weight, cod.phase_weight
    b = np.abs(operator_pairing_table(op, conj_g1, g2)) * (wp1 / l2_norm(g1) ** 2)
    m1, minf, m1_to_minf, _ = induced_norms(op, g1, g2)
    assert m1 == pytest.approx(np.max(np.sum(b, axis=1)) * wp2 / wp1, rel=1e-12)
    assert minf == pytest.approx(np.max(np.sum(b, axis=0)), rel=1e-12)
    assert m1_to_minf == pytest.approx(np.max(b) / wp1, rel=1e-12)


@pytest.mark.parametrize("dom_orders, cod_orders", [((8,), (8,)), ((6,), (2, 3)), ((12,), (8,))])
def test_induced_norms_b_is_the_operator_m1_norm_of_its_table(dom_orders, cod_orders):
    # the fourth value is operator_m1_norm against conj g1, bit for bit;
    # a real window is its own conjugate
    dom, cod = make_group(dom_orders), make_group(cod_orders)
    rng = np.random.default_rng(23)
    shape = (dom.order, cod.order)
    op = KernelOperator(dom, cod, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    g1, g2 = normalized_gauss(dom), normalized_gauss(cod)
    assert induced_norms(op, g1, g2)[3] == operator_m1_norm(op, g1, g2)
    g1 = random_signal(dom, 5)
    g2 = random_signal(cod, 6)
    conj_g1 = Signal(dom, g1.values.conj())
    assert induced_norms(op, g1, g2)[3] == operator_m1_norm(op, conj_g1, g2)


def test_induced_norm_rejects_foreign_window():
    g = make_group((8,))
    with pytest.raises(GroupMismatchError):
        induced_norms(identity_operator(g), normalized_gauss(make_group((6,))))


# ---------------------------------------------------------------------------
# the certificate


def _loc_masks(g):
    return [box_mask(g, r, r) for r in (1, 2, 3, 4)]


def test_check_regularizing_pc_net():
    g = make_group((8,))
    window = normalized_gauss(g)
    net = pc_net(g, SPREADS)
    report = check_regularizing(net, standard_probes(g, 1), window, 1e-10)
    assert isinstance(report, RegularizingReport)
    assert report.passed
    assert report.final_ok and report.weak_ok and report.bounded_ok
    assert report.labels == net.labels
    assert report.sup_m1_opnorm < 10.0
    assert report.sup_minf_opnorm < 10.0


def test_check_regularizing_localization_net():
    g = make_group((8,))
    window = normalized_gauss(g)
    net = localization_net(window, _loc_masks(g))
    report = check_regularizing(net, standard_probes(g, 2), window, 1e-10)
    assert report.passed


def test_check_regularizing_gabor_net():
    grp = make_group((8,))
    system = onb_system(grp)
    net = gabor_partial_net(system, [2, 4, 6, 8])
    assert net.labels == ("gabor[0:2/8]", "gabor[1:4/8]", "gabor[2:6/8]", "gabor[3:8/8]")
    report = check_regularizing(
        net, standard_probes(grp, 3), normalized_gauss(grp), 1e-10
    )
    assert report.passed


def test_check_regularizing_fails_a_bad_net():
    g = make_group((8,))
    window = normalized_gauss(g)
    halved = pc_operator(constant(g, 0.5), dirac(g))
    net = RegNet(g, (halved,), ("half",))
    report = check_regularizing(net, standard_probes(g, 1), window, 1e-10)
    assert not report.passed
    assert not report.final_ok


def test_regularizing_report_with_a_nan_does_not_pass():
    fine = dict(
        labels=("a", "b"),
        final_m1_errors=(0.0, 0.0),
        weak_errors=(0.0, 0.0),
        m1_opnorms=(1.0, 1.0),
        minf_opnorms=(1.0, 1.0),
        tol=1e-10,
    )
    assert RegularizingReport(**fine).passed
    for field, broken in (
        ("final_m1_errors", (0.0, math.nan)),
        ("weak_errors", (math.nan, 0.0)),
        ("m1_opnorms", (1.0, math.nan)),
    ):
        report = RegularizingReport(**dict(fine, **{field: broken}))
        assert not report.passed, field
    report = RegularizingReport(**dict(fine, minf_opnorms=(math.nan, 1.0)))
    assert math.isnan(report.sup_minf_opnorm)
    assert not report.bounded_ok


def test_pair_weak_vanishes_on_identity():
    g = make_group((8,))
    op = identity_operator(g)
    f, s = random_signal(g, 1), random_signal(g, 2)
    assert abs(pair_weak(op, f, s)) < 1e-14
    zero = pc_operator(constant(g, 0.0), dirac(g))
    assert pair_weak(zero, f, s) == pytest.approx(-pair_bilinear(f, s), rel=1e-12)


# ---------------------------------------------------------------------------
# sandwiching and approximate composition


def test_sandwich_converges_to_the_operator():
    g = make_group((8,))
    net = pc_net(g, SPREADS)
    op = fourier_operator(g)
    with pytest.raises(GroupMismatchError):
        sandwich(op, net, net)  # codomain is the dual group
    dual_net = pc_net(g.dual(), SPREADS)
    staged = sandwich(op, net, dual_net)
    assert len(staged) == len(net)
    diff = np.max(np.abs(staged[-1].kernel - op.kernel))
    assert diff < 1e-10 * np.max(np.abs(op.kernel))


def test_sandwich_rejects_length_mismatch():
    g = make_group((8,))
    with pytest.raises(ValueError):
        sandwich(identity_operator(g), pc_net(g, SPREADS), pc_net(g, SPREADS[:2]))


def test_compose_approx_fourier_inversion():
    g = make_group((8,))
    nets = (pc_net(g, SPREADS), pc_net(g.dual(), SPREADS), pc_net(g, SPREADS))
    report = compose_approx(fourier_operator(g), inv_fourier_operator(g), nets)
    assert isinstance(report, ComposeApproxReport)
    assert report.passed
    assert report.final_weak_error <= 1e-10
    assert report.kernel_errors[-1] < 1e-10
    # the exact composition collapses to the identity kernel
    want = identity_operator(g).kernel
    assert np.max(np.abs(report.target.kernel - want)) < 1e-12 * np.max(np.abs(want))
    # stagewise errors shrink monotonically in the tail
    assert report.weak_errors[-1] <= report.weak_errors[0]


def test_compose_approx_rejects_mismatched_nets():
    g = make_group((8,))
    nets = (pc_net(g, SPREADS), pc_net(g.dual(), SPREADS[:2]), pc_net(g, SPREADS))
    with pytest.raises(ValueError):
        compose_approx(fourier_operator(g), inv_fourier_operator(g), nets)
