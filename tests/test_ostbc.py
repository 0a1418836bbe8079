import math

import numpy as np
import pytest

from coop_ostbc.montecarlo import SimPoint
from coop_ostbc.numerics import RngStream, Workspace, sample_circular_gaussian
from coop_ostbc.ostbc import (
    BPSK,
    CODES,
    QAM16,
    QPSK,
    Modulation,
    SpaceTimeCode,
    combine,
    detect,
    modulate,
    modulation_by_name,
    transmit,
)

from codeword import encode
from planes import planes

ALL_MODS = (BPSK, QPSK, QAM16)
# One-axis Gray 4-PAM labelled the other way round from QAM16's axes: its
# high bit marks the negative levels and its low bit the outer ones, so its
# detector compares z < 0 and |z| > edge where QAM16's compares z > 0 and
# |z| < edge.
PAM4_OUTER = Modulation("PAM4_OUTER", 1, tuple(v / math.sqrt(5.0) for v in (1, 3, -1, -3)))
DETECT_MODS = ALL_MODS + (PAM4_OUTER,)
A2 = CODES["alamouti_2x1"]
O4 = CODES["ostbc_4x2"]


def pair(h_b, h_r):
    """2x1 channel array (n_tx=2, n_rx=1[, blocks]) from the BS and RS gains."""
    return np.array([[h_b], [h_r]], dtype=complex)


def alamouti_y(y0, y1):
    """2x1 received array (n_rx=1, n_slots=2[, blocks]) from the two slots."""
    return np.array([[y0, y1]], dtype=complex)


def split(r):
    """(w_B, w_R) of the 2x1 code, the BS and RS amplitude weights."""
    return tuple(A2.weights(r))


def effective(code, h, r):
    """The effective channels w_i h_ij of ``h`` (n_tx, n_rx[, blocks]) at imbalance r."""
    h = np.asarray(h, dtype=complex)
    return code.weights(r).reshape((-1,) + (1,) * (h.ndim - 1)) * h


def unit(code):
    """Weights of one on every transmit antenna: the calls on effective channels."""
    return np.ones(code.n_tx)


def received(code, s, h, w, p, noise, work):
    """The full chain's link and AWGN: sqrt(P) Y + noise, with Y the noiseless
    samples of :func:`transmit` at unit power over ``h`` at the weights ``w``,
    and ``noise`` per rx antenna and slot. The Monte Carlo chunk draws
    per-symbol noise instead; this is the reference its noise stage stands
    for."""
    y = transmit(code, s, h, w, work)
    y *= math.sqrt(p)
    y += noise
    return y


def path_power_sum(est):
    """G_est = sum_ij |est_ij|^2 of (n_tx, n_rx[, blocks]) estimates, per block."""
    return np.sum(np.abs(np.asarray(est)) ** 2, axis=(0, 1))


def gram_error(code, s):
    """Largest deviation of X X^H from |s|^2 I over the blocks of ``s``."""
    x = encode(code, s)
    gram = np.einsum("it...,jt...->ij...", x, x.conj())
    energy = np.sum(np.abs(s) ** 2, axis=0)
    eye = np.eye(code.n_tx).reshape((code.n_tx, code.n_tx) + (1,) * (s.ndim - 1))
    return np.max(np.abs(gram - energy * eye))


def assert_zero_noise_bit_exact(code, mod, seed, r_db, gamma_db):
    """Noise-free blocks with perfect estimates decode to the sent bits."""
    rng = RngStream(seed)
    n = 10_000
    p = 10.0 ** (gamma_db / 10.0)
    bits = rng.bits(code.n_symbols * mod.bits_per_symbol * n)
    work = Workspace()
    syms = modulate(bits, mod, work).reshape(n, code.n_symbols).T
    h = sample_circular_gaussian(rng, 1.0, size=(code.n_tx, code.n_rx, n))
    w = code.weights(10.0 ** (r_db / 10.0))
    noise = np.zeros((code.n_rx, code.n_slots, n), complex)
    s_tilde = combine(code, received(code, syms, h, w, p, noise, work), h, w, work)
    z = s_tilde / (math.sqrt(p) * path_power_sum(effective(code, h, 10.0 ** (r_db / 10.0))))
    per_sym = bits.reshape(n, code.n_symbols, mod.bits_per_symbol)
    for k in range(code.n_symbols):
        assert np.array_equal(detect(*planes(z[k]), mod, work), per_sym[:, k].ravel())


# --- modulation ---------------------------------------------------------------


def test_bpsk_mapping():
    syms = modulate([0, 1], BPSK, Workspace())
    assert syms[0] == 1.0 + 0.0j
    assert syms[1] == -1.0 + 0.0j


def test_qpsk_gray_table():
    inv = 1.0 / math.sqrt(2.0)
    expected = {
        (0, 0): inv + 1j * inv,
        (0, 1): inv - 1j * inv,
        (1, 0): -inv + 1j * inv,
        (1, 1): -inv - 1j * inv,
    }
    for bits, point in expected.items():
        assert modulate(list(bits), QPSK, Workspace())[0] == pytest.approx(point, abs=1e-15)


def test_qam16_unit_average_energy():
    # Independent enumeration of the +/-1, +/-3 grid scaled by 1/sqrt(10).
    grid = np.array(
        [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
    ) / math.sqrt(10.0)
    assert np.mean(np.abs(grid) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.mean(np.abs(QAM16.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_derived_constants_are_the_exact_tables():
    assert BPSK.a_sq == 2.0
    assert QPSK.a_sq == 1.0
    assert QAM16.a_sq is None
    tables = {
        BPSK: np.array([1 + 0j, -1 + 0j]),
        QPSK: np.array([complex(i, q) / math.sqrt(2.0) for i in (1, -1) for q in (1, -1)]),
        QAM16: np.array([complex(i, q) / math.sqrt(10.0)
                         for i in (-3, -1, 3, 1) for q in (-3, -1, 3, 1)]),
    }
    for mod, table in tables.items():
        assert np.array_equal(mod.points.view(np.uint64), table.view(np.uint64)), mod.name
    assert [mod.bits_per_symbol for mod in DETECT_MODS] == [1, 2, 4, 2]
    inner_edges = [edge for _, _, fold, _, edge in QAM16.bit_tests if fold]
    assert inner_edges == [2.0 / math.sqrt(10.0)] * 2


@pytest.mark.parametrize("mod", DETECT_MODS, ids=lambda m: m.name)
def test_unit_average_energy(mod):
    assert np.mean(np.abs(mod.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mod", DETECT_MODS, ids=lambda m: m.name)
def test_gray_labelling_of_nearest_neighbours(mod):
    points = mod.points
    labels = np.arange(points.size)
    for i, p in enumerate(points):
        dist = np.abs(points - p)
        dist[i] = np.inf
        nearest = dist <= dist.min() + 1e-9
        for j in labels[nearest]:
            assert bin(i ^ j).count("1") == 1


def test_modulate_rejects_ragged_bit_count():
    with pytest.raises(ValueError):
        modulate([0, 1, 0], QPSK, Workspace())


def test_modulation_lookup():
    assert modulation_by_name("qpsk") is QPSK
    with pytest.raises(ValueError):
        modulation_by_name("8PSK")


def test_roundtrip_modulate_detect_all_labels():
    for mod in DETECT_MODS:
        n = mod.points.size
        bits = np.array(
            [(i >> k) & 1 for i in range(n) for k in range(mod.bits_per_symbol - 1, -1, -1)],
            dtype=np.uint8,
        )
        work = Workspace()
        assert np.array_equal(detect(*planes(modulate(bits, mod, work)), mod, work), bits)


# --- imbalance weights --------------------------------------------------------


@pytest.mark.parametrize("r", [1e-300, 1e-20, 0.01, 0.1, 1.0, 3.7, 10.0, 100.0, 1e20, 1e300])
def test_power_conservation(r):
    for code in CODES.values():
        assert abs(np.sum(code.weights(r) ** 2) - 1.0) < 1e-15
        # r and 1/r swap the two nodes, at any imbalance: neither node's
        # weight may cancel to 0 while the other keeps its own.
        inverse = code.weights(1.0 / r)[::-1] ** 2
        assert code.weights(r) ** 2 == pytest.approx(inverse, rel=1e-15, abs=0.0)
    w_b, w_r = split(r)
    assert w_b**2 == pytest.approx(1.0 / (1.0 + r), rel=1e-15, abs=0.0)
    assert w_r**2 == pytest.approx(r / (1.0 + r), rel=1e-15, abs=0.0)


def test_balanced_split_at_zero_db():
    w_b, w_r = split(10.0 ** (0.0 / 10.0))
    assert w_b == w_r == math.sqrt(0.5)


def test_imbalance_rejects_non_positive_ratio():
    # The ratio reaches the weights only through a SimPoint, which refuses an
    # r_db whose linear value is not finite and > 0.
    for r_db in (-4000.0, 4000.0, float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="r_db"):
            SimPoint("alamouti_2x1", QPSK, 10.0, r_db, 0.0, seed=1)


@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_antennas_split_their_node_power_equally(code):
    w_b, w_r = split(3.0)
    w_sq = code.weights(3.0) ** 2
    nodes = np.array(code.nodes)
    assert np.sum(w_sq[nodes == "BS"]) == pytest.approx(w_b**2, rel=1e-15)
    assert np.sum(w_sq[nodes == "RS"]) == pytest.approx(w_r**2, rel=1e-15)
    for node in ("BS", "RS"):
        assert np.ptp(w_sq[nodes == node]) == 0.0


def test_code_sizes_are_kept_and_leave_equality_alone():
    twin = SpaceTimeCode(O4.name, O4.entries, O4.nodes, O4.n_rx)
    assert twin == O4 and hash(twin) == hash(O4) and repr(twin) == repr(O4)
    assert (twin.n_tx, twin.n_slots, twin.n_symbols) == (4, 4, 3)
    assert {"n_tx", "n_slots", "n_symbols"} <= vars(twin).keys()  # computed once
    assert twin == O4 and hash(twin) == hash(O4) and repr(twin) == repr(O4)


# --- Alamouti block -----------------------------------------------------------


def test_encode_basis_symbols():
    assert np.array_equal(encode(A2, [1, 0]), np.array([[1, 0], [0, 1]]))
    assert np.array_equal(encode(A2, [0, 1]), np.array([[0, -1], [1, 0]]))


def test_encode_rows_orthogonal_hand_case():
    cw = encode(A2, [1 + 1j, 1 - 1j])
    assert np.vdot(cw[1], cw[0]) == 0


def test_encode_rows_orthogonal_random():
    s = sample_circular_gaussian(RngStream(31), 1.0, size=(2, 500))
    assert gram_error(A2, s) < 1e-12


def test_encode_column_energy():
    cw = encode(A2, [2 + 1j, 0.5 - 0.25j])
    e = abs(2 + 1j) ** 2 + abs(0.5 - 0.25j) ** 2
    for t in range(2):
        assert np.sum(np.abs(cw[:, t]) ** 2) == pytest.approx(e, rel=1e-15)


def test_encode_rejects_wrong_symbol_count():
    with pytest.raises(ValueError):
        encode(A2, [1.0, 0.0, 0.0])


# --- transmit / combine -------------------------------------------------------


def test_transmit_hand_example():
    # Balanced links, unit channels, P = 2, (s0, s1) = (1, 0) gives (1, 1).
    y = received(A2, [1.0, 0.0], pair(1.0, 1.0), A2.weights(1.0), 2.0,
                 np.zeros((1, 2), complex), Workspace())
    assert y[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert y[0, 1] == pytest.approx(1.0, rel=1e-15)


def test_transmit_dead_relay_reduces_to_single_antenna():
    r = 2.0
    p = 5.0
    s0, s1 = 0.6 + 0.3j, -0.2 + 0.9j
    y = received(A2, [s0, s1], pair(1.5 - 0.5j, 0.0), A2.weights(r), p,
                 np.zeros((1, 2), complex), Workspace())
    scale = math.sqrt(p / (1.0 + r)) * (1.5 - 0.5j)
    assert y[0, 0] == pytest.approx(scale * s0, rel=1e-12)
    assert y[0, 1] == pytest.approx(-scale * np.conj(s1), rel=1e-12)


def test_transmit_rejects_wrong_symbol_count():
    with pytest.raises(ValueError):
        transmit(A2, [1.0, 0.0, 0.0], pair(1.0, 1.0), unit(A2), Workspace())


@pytest.mark.parametrize("symbols, channels", [
    (np.ones((3, 5)), np.ones((4, 1, 5))),  # an rx antenna too few, which would broadcast
    (np.ones((3, 5)), np.ones((3, 2, 5))),  # a transmit antenna too few
    (np.ones((3, 5)), np.ones((4, 2))),  # no block axis beside the symbols' one
    (np.ones(3), np.ones((4, 2, 5))),  # a block axis the symbols lack, likewise
], ids=["rx", "tx", "blocks", "symbol-blocks"])
def test_transmit_rejects_channels_that_do_not_fit(symbols, channels):
    with pytest.raises(ValueError, match="channels"):
        transmit(O4, symbols, channels, unit(O4), Workspace())


@pytest.mark.parametrize("weights", [np.ones(3), np.ones(5), np.ones((4, 1))],
                         ids=["too few", "too many", "2-d"])
def test_transmit_and_combine_reject_weights_that_do_not_fit(weights):
    with pytest.raises(ValueError, match="weights"):
        transmit(O4, np.ones((3, 5)), np.ones((4, 2, 5)), weights, Workspace())
    with pytest.raises(ValueError, match="weights"):
        combine(O4, np.ones((2, 4, 5)), np.ones((4, 2, 5)), weights, Workspace())


def test_combine_hand_example():
    s0 = (1 + 1j) / math.sqrt(2)
    s1 = (1 - 1j) / math.sqrt(2)
    h, w = pair(1.0, 1.0j), A2.weights(1.0)
    y = transmit(A2, [s0, s1], h, w, Workspace())
    s0t, s1t = combine(A2, y, h, w, Workspace())
    g = path_power_sum(effective(A2, h, 1.0))
    assert g == pytest.approx(1.0, rel=1e-15)
    assert s0t / g == pytest.approx(s0, rel=1e-12)
    assert s1t / g == pytest.approx(s1, rel=1e-12)


def test_combine_zero_estimates_give_zero():
    s0t, s1t = combine(A2, alamouti_y(1.0 + 2.0j, 3.0 - 1.0j), pair(0.0, 0.0), unit(A2),
                       Workspace())
    assert s0t == 0 and s1t == 0


def test_combine_is_the_imbalance_aware_alamouti_matrix():
    # [s~0; s~1] = [[w_B hb*, w_R hr], [w_R hr*, -w_B hb]] . [y0; y1*]
    rng = RngStream(39)
    hb, hr = sample_circular_gaussian(rng, 1.0, size=2)
    y0, y1 = sample_circular_gaussian(rng, 1.0, size=2)
    w_b, w_r = split(0.3)
    matrix = np.array(
        [[w_b * np.conj(hb), w_r * hr], [w_r * np.conj(hr), -w_b * hb]]
    )
    expected = matrix @ np.array([y0, np.conj(y1)])
    got = combine(A2, alamouti_y(y0, y1), pair(hb, hr), A2.weights(0.3), Workspace())
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_combine_recovers_symbols_with_perfect_csi():
    rng = RngStream(32)
    n = 10_000
    p = 3.0
    s = sample_circular_gaussian(rng, 1.0, size=(2, n))
    h, w = sample_circular_gaussian(rng, 1.0, size=(2, 1, n)), A2.weights(4.2)
    y = received(A2, s, h, w, p, np.zeros((1, 2, n), complex), Workspace())
    s_tilde = combine(A2, y, h, w, Workspace())
    g = math.sqrt(p) * path_power_sum(effective(A2, h, 4.2))
    assert np.max(np.abs(s_tilde / g - s)) < 1e-12


def test_combine_is_linear_in_received_vector():
    # The combiner is the fixed matrix applied to [y0, y1*], so it is
    # linear over the reals in y and complex-linear in that product input
    # (a complex scale on raw y cannot commute through the conjugation).
    rng = RngStream(33)
    est, w = sample_circular_gaussian(rng, 1.0, size=(2, 1)), A2.weights(0.5)
    y = alamouti_y(0.4 - 0.2j, -1.1 + 0.8j)
    # Each result is the "combined" array of its workspace, so the two
    # results compared need a workspace each.
    b = combine(A2, y, est, w, Workspace())

    for alpha in (2.5, -0.3):
        a = combine(A2, alpha * y, est, w, Workspace())
        assert np.allclose(a, alpha * b, rtol=1e-12, atol=0)

    alpha = 1.7 - 2.2j
    scaled = alamouti_y(alpha * y[0, 0], np.conj(alpha) * y[0, 1])
    a = combine(A2, scaled, est, w, Workspace())
    assert np.allclose(a, alpha * b, rtol=1e-12, atol=0)


# --- detection ----------------------------------------------------------------


def test_detect_bpsk_positive_half_plane():
    assert np.array_equal(detect(*planes(0.3 + 0.0j), BPSK, Workspace()), [0])
    assert np.array_equal(detect(*planes(-0.3 + 0.0j), BPSK, Workspace()), [1])


def test_detect_tie_breaks_to_smallest_label():
    # The origin is equidistant from every QPSK point.
    assert np.array_equal(detect(*planes(0.0j), QPSK, Workspace()), [0, 0])
    # On the positive real axis the tie is between labels 00 and 01.
    assert np.array_equal(detect(*planes(0.9 + 0.0j), QPSK, Workspace()), [0, 0])


def nearest_point_bits(z, mod):
    """Reference detector: distance to every point, first minimum wins, as bits."""
    z = np.asarray(z, dtype=complex).ravel()
    diff = z[:, None] - mod.points[None, :]
    idx = np.argmin(diff.real**2 + diff.imag**2, axis=1)
    shifts = np.arange(mod.bits_per_symbol - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def axis_values(levels):
    """Levels, the edges midway between them, points just off each edge, and beyond.

    "Just off" is 1e-9: the reference's squared distances cannot resolve
    one float beside the edge at 0 (5e-324) and would call it a tie.
    """
    levels = np.unique(levels)
    edges = (levels[:-1] + levels[1:]) / 2
    near = np.concatenate([edges - 1e-9, edges + 1e-9])
    outside = np.array([-1.5, 1.5]) * np.max(np.abs(levels)) + np.array([-1.0, 1.0])
    return np.concatenate([levels, edges, near, outside])


@pytest.mark.parametrize("mod", DETECT_MODS, ids=lambda m: m.name)
def test_detect_matches_nearest_point_on_points_edges_and_crossings(mod):
    z = axis_values(mod.points.real)[:, None] + 1j * axis_values(mod.points.imag)[None, :]
    assert np.array_equal(detect(*planes(z), mod, Workspace()), nearest_point_bits(z, mod))


@pytest.mark.parametrize("mod", DETECT_MODS, ids=lambda m: m.name)
def test_detect_matches_nearest_point_on_random_symbols(mod):
    rng = RngStream(41, mod.bits_per_symbol)
    uniforms = np.random.Generator(np.random.Philox(key=[42, mod.bits_per_symbol]))
    for _ in range(4):
        gain = 0.1 + uniforms.random((50_000, 1))
        z = sample_circular_gaussian(rng, 2.0, size=(50_000, 3)) / gain
        assert np.array_equal(detect(*planes(z), mod, Workspace()), nearest_point_bits(z, mod))
        # The chunk's layout, (n_symbols, blocks).
        assert np.array_equal(detect(*planes(z.T), mod, Workspace()),
                              nearest_point_bits(z.T, mod))
    for z in sample_circular_gaussian(rng, 2.0, size=20) / uniforms.random(20):
        assert np.array_equal(detect(*planes(z), mod, Workspace()), nearest_point_bits(z, mod))


def test_detect_fixed_points_qam16():
    for i, point in enumerate(QAM16.points):
        bits = detect(*planes(point), QAM16, Workspace())
        assert int("".join(map(str, bits)), 2) == i


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_zero_noise_perfect_csi_is_bit_exact_2x1(mod):
    assert_zero_noise_bit_exact(A2, mod, seed=35, r_db=3.7, gamma_db=12.0)


# --- 4-antenna code -----------------------------------------------------------


def test_ostbc4_basis_codeword_is_orthogonal():
    cw = encode(O4, [1.0, 0.0, 0.0])
    assert np.allclose(cw @ cw.conj().T, np.eye(4), atol=1e-15)


def test_ostbc4_defining_property_random():
    s = sample_circular_gaussian(RngStream(36), 1.0, size=(3, 100))
    assert gram_error(O4, s) < 1e-12


def test_ostbc4_zero_input_gives_zero_matrix():
    assert np.all(encode(O4, [0.0, 0.0, 0.0]) == 0)


def test_ostbc4_single_path_gain():
    h = np.zeros((4, 2), dtype=complex)
    h[0, 0] = 1.0
    w = O4.weights(1.0)
    s = (0.3 + 0.4j, -0.8 + 0.1j, 0.5 - 0.5j)
    y = transmit(O4, s, h, w, Workspace())
    outs = combine(O4, y, h, w, Workspace())
    for k in range(3):  # w_B^2 = 1/2 at r = 1, split over the BS's two antennas
        assert outs[k] == pytest.approx(0.25 * s[k], rel=1e-12)


def test_ostbc4_zero_channels_give_zero_output():
    outs = combine(O4, np.zeros((2, 4), complex), np.zeros((4, 2), complex), unit(O4),
                   Workspace())
    assert np.all(outs == 0)


def test_ostbc4_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 3), complex), np.zeros((4, 2), complex), unit(O4), Workspace())
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 4), complex), np.zeros((3, 2), complex), unit(O4), Workspace())
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 4), complex), np.zeros((4, 3), complex), unit(O4), Workspace())


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_zero_noise_perfect_csi_is_bit_exact_4x2(mod):
    assert_zero_noise_bit_exact(O4, mod, seed=37, r_db=-2.5, gamma_db=8.0)


# --- every code in the table --------------------------------------------------


@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_codeword_rows_are_orthogonal(code):
    s = sample_circular_gaussian(RngStream(40), 1.0, size=(code.n_symbols, 200))
    assert gram_error(code, s) < 1e-12


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_zero_noise_perfect_csi_is_bit_exact(code, mod):
    assert_zero_noise_bit_exact(code, mod, seed=41, r_db=10.0, gamma_db=3.0)


def noise_map(code, est, w):
    """combine's real-linear map, at the weights ``w``, from the real and
    imaginary parts of the (n_rx, n_slots) received samples to those of the
    n_symbols outputs: one (2 n_symbols, 2 n_rx n_slots) matrix per block of
    ``est``, built column by column from basis vectors."""
    columns = []
    for j in range(code.n_rx):
        for t in range(code.n_slots):
            for unit in (1.0, 1.0j):
                y = np.zeros((code.n_rx, code.n_slots) + est.shape[2:], complex)
                y[j, t] = unit
                s = combine(code, y, est, w, Workspace())
                columns.append(np.concatenate([s.real, s.imag]))
    return np.stack(columns, axis=1)


def whitening_error(code, est, w):
    """Largest deviation of M M^T from G_est I, relative to G_est, over the
    blocks, with G_est that of the effective estimates w_i est_ij."""
    m = noise_map(code, est, w)
    mmt = np.einsum("ac...,bc...->ab...", m, m)
    g = path_power_sum(w[:, None, None] * est)
    eye = np.eye(2 * code.n_symbols).reshape(mmt.shape[:2] + (1,) * (est.ndim - 2))
    return np.max(np.abs(mmt - g * eye) / g)


@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_combine_whitens_antenna_noise_to_the_gain(code):
    # White CN(0, 1) antenna noise has covariance I/2 over its real parts, so
    # combine turns it into noise of covariance M M^T / 2. For an orthogonal
    # design that is G_est I / 2: white, circular noise of variance G_est on
    # each symbol, which the chunk's per-symbol noise stage draws directly.
    est = sample_circular_gaussian(RngStream(45), 1.0, (code.n_tx, code.n_rx, 200))
    w = code.weights(3.0)
    assert whitening_error(code, est, w) < 1e-12
    # A code table with one sign flipped is no longer orthogonal, and the
    # check must see it.
    for e, (i, t, k, conjugate, sign) in enumerate(code.entries):
        entries = list(code.entries)
        entries[e] = (i, t, k, conjugate, -sign)
        flipped = SpaceTimeCode(code.name, tuple(entries), code.nodes, code.n_rx)
        assert whitening_error(flipped, est, w) > 1e-3


# --- where results live ------------------------------------------------------


def _layer_calls(work):
    """Each layer as a no-argument call, on small 4x2 QAM16 inputs; the four
    of the chain write into ``work``, the draws and the reference do not."""
    n = 50
    bits = RngStream(7).bits(O4.n_symbols * QAM16.bits_per_symbol * n)
    syms = modulate(bits, QAM16, Workspace()).reshape(n, O4.n_symbols).T
    h, w = sample_circular_gaussian(RngStream(8), 1.0, (O4.n_tx, O4.n_rx, n)), O4.weights(2.0)
    y = sample_circular_gaussian(RngStream(9), 1.0, (O4.n_rx, O4.n_slots, n))
    return {
        "normal_pairs": lambda: RngStream(1).normal_pairs(n),
        "sample_circular_gaussian": lambda: sample_circular_gaussian(RngStream(1), 1.0, n),
        "exponentials": lambda: RngStream(1).exponentials(n),
        "encode": lambda: encode(O4, syms),
        "modulate": lambda: modulate(bits, QAM16, work),
        "transmit": lambda: transmit(O4, syms, h, w, work),
        "combine": lambda: combine(O4, y, h, w, work),
        "detect": lambda: detect(*planes(syms), QAM16, work),
    }


@pytest.mark.parametrize("layer", ["normal_pairs", "sample_circular_gaussian", "exponentials",
                                   "encode"])
def test_layers_return_fresh_arrays_without_a_workspace(layer):
    # The draws without out= and the reference codeword survive the next
    # call: the two results share no memory.
    call = _layer_calls(Workspace())[layer]
    first, second = call(), call()
    firsts = first if isinstance(first, tuple) else (first,)
    seconds = second if isinstance(second, tuple) else (second,)
    for a in firsts:
        for b in seconds:
            assert not np.shares_memory(a, b)
    for a, b in zip(firsts, seconds):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layer", ["modulate", "transmit", "combine", "detect"])
def test_layers_write_their_results_into_the_workspace(layer):
    # A chain layer allocates no result: it returns an array of the
    # workspace, the same one call after call.
    work = Workspace()
    calls = _layer_calls(work)
    first, second = calls[layer](), calls[layer]()
    assert any(np.shares_memory(first, flat) for flat in work._buffers.values())
    assert np.shares_memory(first, second)


def transmit_from_codeword(code, s, h, p, noise):
    """Y from the codeword of ``s``, one table entry at a time, each added,
    then scaled by sqrt(P) and put over the noise.

    :func:`transmit` builds no codeword and folds each entry's sign into the
    symbol it sends instead; carried over the same effective channels at
    unit weights by :func:`received`, it must equal this bit for bit.

    Each rx antenna's product is taken over one flat block axis, even of
    length 1, as :func:`transmit` takes it: numpy's complex product of an
    array and a scalar, or of two arrays of another shape, can round one
    ulp away from it (seen on 10 of 16 seeds of a one-block 2x1 sum).
    """
    blocks = h.shape[2:]
    x = encode(code, s).reshape((code.n_tx, code.n_slots, -1))
    h = h.reshape((code.n_tx, code.n_rx, -1))
    y = np.empty((code.n_rx, code.n_slots) + h.shape[2:], complex)
    started = set()
    for i, t, *_ in code.entries:
        for j in range(code.n_rx):
            if t in started:
                y[j, t] += h[i, j] * x[i, t]
            else:
                y[j, t] = h[i, j] * x[i, t]
        started.add(t)
    y = y.reshape((code.n_rx, code.n_slots) + blocks)
    y *= math.sqrt(p)
    y += noise
    return y


@pytest.mark.parametrize("blocks", [(), (257,)], ids=["one block", "block axis"])
@pytest.mark.parametrize("p", [0.0, 1.0, 3.7e5])
@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_transmit_over_the_noise_equals_the_codeword_sum_bit_for_bit(code, p, blocks):
    rng = RngStream(44)
    s = sample_circular_gaussian(rng, 1.0, (code.n_symbols,) + blocks)
    h = effective(code, sample_circular_gaussian(rng, 1.0, (code.n_tx, code.n_rx) + blocks), 2.5)
    noise = sample_circular_gaussian(rng, 1.0, (code.n_rx, code.n_slots) + blocks)
    want = transmit_from_codeword(code, s, h, p, noise)
    got = received(code, s, h, unit(code), p, noise, Workspace())
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("r", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_weights_act_as_the_effective_channels(code, r):
    # transmit and combine apply sign * w_i per codeword entry, to the sent
    # symbol and to the conjugated factor; that must be the same calls at
    # unit weights on the effective channels w_i h_ij, to rounding.
    rng = RngStream(46)
    n = 300
    s = sample_circular_gaussian(rng, 1.0, (code.n_symbols, n))
    h = sample_circular_gaussian(rng, 1.0, (code.n_tx, code.n_rx, n))
    y = sample_circular_gaussian(rng, 1.0, (code.n_rx, code.n_slots, n))
    w = code.weights(r)
    pairs = [
        (transmit(code, s, h, w, Workspace()), transmit(code, s, effective(code, h, r),
                                                        unit(code), Workspace())),
        (combine(code, y, h, w, Workspace()), combine(code, y, effective(code, h, r),
                                                      unit(code), Workspace())),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
