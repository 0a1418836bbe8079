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
    SpaceTimeCode,
    combine,
    detect,
    effective_gain,
    encode,
    modulate,
    modulation_by_name,
    transmit,
)

ALL_MODS = (BPSK, QPSK, QAM16)
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
    h = effective(code, h, 10.0 ** (r_db / 10.0))
    noise = np.zeros((code.n_rx, code.n_slots, n), complex)
    s_tilde = combine(code, transmit(code, syms, h, p, noise, work), h, work)
    gain = math.sqrt(p) * effective_gain(code, h, work)
    per_sym = bits.reshape(n, code.n_symbols, mod.bits_per_symbol)
    for k in range(code.n_symbols):
        assert np.array_equal(detect(s_tilde[k], gain, mod, work), per_sym[:, k].ravel())


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


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_unit_average_energy(mod):
    assert np.mean(np.abs(mod.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
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
    for mod in ALL_MODS:
        n = mod.points.size
        bits = np.array(
            [(i >> k) & 1 for i in range(n) for k in range(mod.bits_per_symbol - 1, -1, -1)],
            dtype=np.uint8,
        )
        work = Workspace()
        assert np.array_equal(detect(modulate(bits, mod, work), 1.0, mod, work), bits)


# --- imbalance weights --------------------------------------------------------


@pytest.mark.parametrize("r", [0.01, 0.1, 1.0, 3.7, 10.0, 100.0])
def test_power_conservation(r):
    for code in CODES.values():
        assert abs(np.sum(code.weights(r) ** 2) - 1.0) < 1e-15
    w_b, w_r = split(r)
    assert w_b**2 == pytest.approx(1.0 / (1.0 + r), rel=1e-15)
    assert w_r**2 == pytest.approx(r / (1.0 + r), rel=1e-15)


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
    y = transmit(A2, [1.0, 0.0], effective(A2, pair(1.0, 1.0), 1.0), 2.0,
                 np.zeros((1, 2), complex), Workspace())
    assert y[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert y[0, 1] == pytest.approx(1.0, rel=1e-15)


def test_transmit_dead_relay_reduces_to_single_antenna():
    r = 2.0
    p = 5.0
    s0, s1 = 0.6 + 0.3j, -0.2 + 0.9j
    y = transmit(A2, [s0, s1], effective(A2, pair(1.5 - 0.5j, 0.0), r), p,
                 np.zeros((1, 2), complex), Workspace())
    scale = math.sqrt(p / (1.0 + r)) * (1.5 - 0.5j)
    assert y[0, 0] == pytest.approx(scale * s0, rel=1e-12)
    assert y[0, 1] == pytest.approx(-scale * np.conj(s1), rel=1e-12)


def test_transmit_rejects_wrong_symbol_count():
    with pytest.raises(ValueError):
        transmit(A2, [1.0, 0.0, 0.0], pair(1.0, 1.0), 1.0, np.zeros((1, 2), complex),
                 Workspace())


@pytest.mark.parametrize("noise", [
    np.zeros((1, 2)),  # float: the signal cannot be added onto it
    np.zeros((1, 2), np.complex64),
    np.zeros((1, 3), complex),  # a slot too many
    np.zeros((2, 2), complex),  # an rx antenna too many, which would broadcast
    np.zeros((1, 2, 5), complex),  # a block axis the channels lack, likewise
], ids=["float", "complex64", "slots", "rx", "blocks"])
def test_transmit_rejects_noise_it_cannot_add_onto(noise):
    with pytest.raises(ValueError, match="noise"):
        transmit(A2, [1.0, 0.0], pair(1.0, 1.0), 1.0, noise, Workspace())


def test_transmit_zero_power_passes_noise_through():
    noise = alamouti_y(0.3 + 0.1j, -0.2 - 0.7j)
    want = noise.copy()
    y = transmit(A2, [1.0, 1.0], pair(1.0, 1.0), 0.0, noise, Workspace())
    assert np.array_equal(y, want)


def test_combine_hand_example():
    s0 = (1 + 1j) / math.sqrt(2)
    s1 = (1 - 1j) / math.sqrt(2)
    h = effective(A2, pair(1.0, 1.0j), 1.0)
    y = transmit(A2, [s0, s1], h, 1.0, np.zeros((1, 2), complex), Workspace())
    s0t, s1t = combine(A2, y, h, Workspace())
    g = effective_gain(A2, h, Workspace())
    assert g == pytest.approx(1.0, rel=1e-15)
    assert s0t / g == pytest.approx(s0, rel=1e-12)
    assert s1t / g == pytest.approx(s1, rel=1e-12)


def test_combine_zero_estimates_give_zero():
    s0t, s1t = combine(A2, alamouti_y(1.0 + 2.0j, 3.0 - 1.0j), pair(0.0, 0.0), Workspace())
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
    got = combine(A2, alamouti_y(y0, y1), effective(A2, pair(hb, hr), 0.3), Workspace())
    assert np.allclose(got, expected, rtol=1e-14, atol=0)


def test_combine_recovers_symbols_with_perfect_csi():
    rng = RngStream(32)
    n = 10_000
    p = 3.0
    s = sample_circular_gaussian(rng, 1.0, size=(2, n))
    h = effective(A2, sample_circular_gaussian(rng, 1.0, size=(2, 1, n)), 4.2)
    y = transmit(A2, s, h, p, np.zeros((1, 2, n), complex), Workspace())
    s_tilde = combine(A2, y, h, Workspace())
    g = math.sqrt(p) * effective_gain(A2, h, Workspace())
    assert np.max(np.abs(s_tilde / g - s)) < 1e-12


def test_combine_is_linear_in_received_vector():
    # The combiner is the fixed matrix applied to [y0, y1*], so it is
    # linear over the reals in y and complex-linear in that product input
    # (a complex scale on raw y cannot commute through the conjugation).
    rng = RngStream(33)
    est = effective(A2, sample_circular_gaussian(rng, 1.0, size=(2, 1)), 0.5)
    y = alamouti_y(0.4 - 0.2j, -1.1 + 0.8j)
    # Each result is the "combined" array of its workspace, so the two
    # results compared need a workspace each.
    b = combine(A2, y, est, Workspace())

    for alpha in (2.5, -0.3):
        a = combine(A2, alpha * y, est, Workspace())
        assert np.allclose(a, alpha * b, rtol=1e-12, atol=0)

    alpha = 1.7 - 2.2j
    scaled = alamouti_y(alpha * y[0, 0], np.conj(alpha) * y[0, 1])
    a = combine(A2, scaled, est, Workspace())
    assert np.allclose(a, alpha * b, rtol=1e-12, atol=0)


def test_effective_gain_matches_weighted_branch_sum():
    h = sample_circular_gaussian(RngStream(34), 1.0, size=(2, 1, 1000))
    hb, hr = h[0, 0], h[1, 0]
    for r in (0.2, 1.0, 10.0):
        expected = np.abs(hb) ** 2 / (1.0 + r) + r * np.abs(hr) ** 2 / (1.0 + r)
        got = effective_gain(A2, effective(A2, h, r), Workspace())
        assert np.max(np.abs(got - expected)) < 1e-12


# --- detection ----------------------------------------------------------------


def test_detect_bpsk_positive_half_plane():
    assert np.array_equal(detect(0.3 + 0.0j, 1.0, BPSK, Workspace()), [0])
    assert np.array_equal(detect(-0.3 + 0.0j, 1.0, BPSK, Workspace()), [1])


def test_detect_tie_breaks_to_smallest_label():
    # The origin is equidistant from every QPSK point.
    assert np.array_equal(detect(0.0j, 1.0, QPSK, Workspace()), [0, 0])
    # On the positive real axis the tie is between labels 00 and 01.
    assert np.array_equal(detect(0.9 + 0.0j, 1.0, QPSK, Workspace()), [0, 0])


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


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_detect_matches_nearest_point_on_points_edges_and_crossings(mod):
    z = axis_values(mod.points.real)[:, None] + 1j * axis_values(mod.points.imag)[None, :]
    assert np.array_equal(detect(z, 1.0, mod, Workspace()), nearest_point_bits(z, mod))


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_detect_matches_nearest_point_on_random_symbols(mod):
    rng = RngStream(41, mod.bits_per_symbol)
    uniforms = np.random.Generator(np.random.Philox(key=[42, mod.bits_per_symbol]))
    for _ in range(4):
        s = sample_circular_gaussian(rng, 2.0, size=(50_000, 3))
        gain = 0.1 + uniforms.random(50_000)
        got = detect(s, gain[:, None], mod, Workspace())
        assert np.array_equal(got, nearest_point_bits(s / gain[:, None], mod))
    for s, gain in zip(sample_circular_gaussian(rng, 2.0, size=20), uniforms.random(20)):
        assert np.array_equal(detect(s, gain, mod, Workspace()), nearest_point_bits(s / gain, mod))


def test_detect_fixed_points_qam16():
    for i, point in enumerate(QAM16.points):
        bits = detect(point, 1.0, QAM16, Workspace())
        assert int("".join(map(str, bits)), 2) == i


def test_detect_applies_gain_normalization():
    assert np.array_equal(
        detect(100.0 * QAM16.points[7], 100.0, QAM16, Workspace()),
        detect(QAM16.points[7], 1.0, QAM16, Workspace()),
    )


def test_detect_rejects_non_positive_gain():
    with pytest.raises(ValueError):
        detect(1.0 + 0j, 0.0, BPSK, Workspace())
    for gain in (-1.0, float("nan"), np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            detect(np.array([1.0 + 0j, 1.0j]), gain, QAM16, Workspace())


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
    h = effective(O4, h, 1.0)
    s = (0.3 + 0.4j, -0.8 + 0.1j, 0.5 - 0.5j)
    y = transmit(O4, s, h, 1.0, np.zeros((2, 4), complex), Workspace())
    outs = combine(O4, y, h, Workspace())
    for k in range(3):  # w_B^2 = 1/2 at r = 1, split over the BS's two antennas
        assert outs[k] == pytest.approx(0.25 * s[k], rel=1e-12)


def test_ostbc4_zero_channels_give_zero_output():
    outs = combine(O4, np.zeros((2, 4), complex), np.zeros((4, 2), complex), Workspace())
    assert np.all(outs == 0)


def test_ostbc4_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 3), complex), np.zeros((4, 2), complex), Workspace())
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 4), complex), np.zeros((3, 2), complex), Workspace())
    with pytest.raises(ValueError):
        combine(O4, np.zeros((2, 4), complex), np.zeros((4, 3), complex), Workspace())


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
def test_zero_noise_perfect_csi_is_bit_exact_4x2(mod):
    assert_zero_noise_bit_exact(O4, mod, seed=37, r_db=-2.5, gamma_db=8.0)


def test_ostbc4_effective_gain_sums_weighted_paths():
    h = sample_circular_gaussian(RngStream(38), 1.0, size=(4, 2))
    r = 3.0
    w_sq = np.array([1.0 / (1.0 + r) / 2] * 2 + [r / (1.0 + r) / 2] * 2)
    expected = float(np.sum(w_sq[:, None] * np.abs(h) ** 2))
    got = effective_gain(O4, effective(O4, h, r), Workspace())
    assert got == pytest.approx(expected, rel=1e-12)


# --- every code in the table --------------------------------------------------


@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_codeword_rows_are_orthogonal(code):
    s = sample_circular_gaussian(RngStream(40), 1.0, size=(code.n_symbols, 200))
    assert gram_error(code, s) < 1e-12


@pytest.mark.parametrize("mod", ALL_MODS, ids=lambda m: m.name)
@pytest.mark.parametrize("code", CODES.values(), ids=lambda c: c.name)
def test_zero_noise_perfect_csi_is_bit_exact(code, mod):
    assert_zero_noise_bit_exact(code, mod, seed=41, r_db=10.0, gamma_db=3.0)


# --- where results live ------------------------------------------------------


def _layer_calls(work):
    """Each layer as a no-argument call, on small 4x2 QAM16 inputs; the five
    of the chain write into ``work``, the draws and the reference do not."""
    n = 50
    bits = RngStream(7).bits(O4.n_symbols * QAM16.bits_per_symbol * n)
    syms = modulate(bits, QAM16, Workspace()).reshape(n, O4.n_symbols).T
    h = effective(O4, sample_circular_gaussian(RngStream(8), 1.0, (O4.n_tx, O4.n_rx, n)), 2.0)
    noise = sample_circular_gaussian(RngStream(9), 1.0, (O4.n_rx, O4.n_slots, n))
    gain = effective_gain(O4, h, Workspace())
    return noise, {
        "normal_pairs": lambda: RngStream(1).normal_pairs(n),
        "sample_circular_gaussian": lambda: sample_circular_gaussian(RngStream(1), 1.0, n),
        "encode": lambda: encode(O4, syms),
        "modulate": lambda: modulate(bits, QAM16, work),
        "transmit": lambda: transmit(O4, syms, h, 10.0, noise, work),
        "combine": lambda: combine(O4, noise, h, work),
        "effective_gain": lambda: effective_gain(O4, h, work),
        "detect": lambda: detect(syms, gain, QAM16, work),
    }


@pytest.mark.parametrize("layer", ["normal_pairs", "sample_circular_gaussian", "encode"])
def test_layers_return_fresh_arrays_without_a_workspace(layer):
    # The draws without out= and the reference codeword survive the next
    # call: the two results share no memory.
    call = _layer_calls(Workspace())[1][layer]
    first, second = call(), call()
    firsts = first if isinstance(first, tuple) else (first,)
    seconds = second if isinstance(second, tuple) else (second,)
    for a in firsts:
        for b in seconds:
            assert not np.shares_memory(a, b)
    for a, b in zip(firsts, seconds):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layer", ["modulate", "transmit", "combine", "effective_gain", "detect"])
def test_layers_write_their_results_into_the_workspace(layer):
    # A chain layer allocates no result: it returns an array of the
    # workspace, the same one call after call, or, for transmit, the noise.
    work = Workspace()
    noise, calls = _layer_calls(work)
    first, second = calls[layer](), calls[layer]()
    if layer == "transmit":
        assert first is noise and second is noise
    else:
        assert any(np.shares_memory(first, flat) for flat in work._buffers.values())
        assert np.shares_memory(first, second)


def transmit_from_codeword(code, s, h, p, noise):
    """Y from the codeword of ``s``, one table entry at a time, each added.

    The reference :func:`transmit` must equal bit for bit: it builds no
    codeword and subtracts the terms with sign -1 instead.
    """
    x = encode(code, s)
    y = np.empty((code.n_rx, code.n_slots) + h.shape[2:], complex)
    started = set()
    for i, t, *_ in code.entries:
        if t in started:
            y[:, t] += h[i] * x[i, t]
        else:
            started.add(t)
            y[:, t] = h[i] * x[i, t]
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
    want = transmit_from_codeword(code, s, h, p, noise.copy())
    assert transmit(code, s, h, p, noise, Workspace()) is noise
    assert np.array_equal(noise.view(np.uint64), want.view(np.uint64))
