import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melcep import compare
from melcep.compare import (
    _pairwise_distance,
    MEASURES,
    DtwPath,
    PitchContour,
    build_report,
    dtw_align,
    load_pitch_csv,
    mel_distances,
    metric_curve_mae,
    pitch_metrics,
    utterance_deltas,
)
from melcep.cepstral import mel_cepstrogram, quefrency_power
from melcep.cli import analyze_mel
from melcep.osmetrics import UtteranceMetrics, utterance_metrics
from melcep.spectral import LogMelSpectrogram

from conftest import speechy_frame
from oracles import dtw_enum_min_cost, dtw_enum_min_cost_unpruned, dtw_loop_reference, pearson_reference


def _mel(frames):
    return LogMelSpectrogram(np.asarray(frames, dtype=float).T)


def _um(frames):
    return utterance_metrics(quefrency_power(mel_cepstrogram(_mel(frames))))


# ---------------------------------------------------------------- DTW


def test_identical_sequences_diagonal_zero_cost(rng):
    a = rng.normal(0, 1, (6, 3))
    path, cost = dtw_align(a, a, "l2")
    assert cost == 0.0
    assert np.array_equal(path.pairs, np.stack([np.arange(6), np.arange(6)], axis=1))
    # cosine self-similarity carries float dust, so only near-zero there
    path, cost = dtw_align(a, a, "cosine")
    assert 0.0 <= cost < 1e-12
    assert np.array_equal(path.pairs, np.stack([np.arange(6), np.arange(6)], axis=1))


def test_duplicated_frame_costs_nothing(rng):
    a = rng.normal(0, 1, (5, 3))
    b = np.insert(a, 2, a[2], axis=0)
    path, cost = dtw_align(a, b, "l2")
    assert cost == 0.0
    steps = np.diff(path.pairs, axis=0)
    insertions = [tuple(s) for s in steps if tuple(s) in ((0, 1), (1, 0))]
    assert len(insertions) == 1


def test_dtw_random_8x4_vs_11x4_matches_enumeration(rng):
    a = rng.normal(0, 1, (8, 4))
    b = rng.normal(0, 1, (11, 4))
    for dist in ("cosine", "l2"):
        _, cost = dtw_align(a, b, dist)
        d = _dist_matrix(a, b, dist)
        assert cost == dtw_enum_min_cost(d)


def _dist_matrix(a, b, dist):
    if dist == "cosine":
        an = a / np.linalg.norm(a, axis=1, keepdims=True)
        bn = b / np.linalg.norm(b, axis=1, keepdims=True)
        return 1.0 - an @ bn.T
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def test_dtw_matches_enumeration_small_grids(rng):
    for _ in range(50):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        a = rng.normal(0, 1, (n1, 2))
        b = rng.normal(0, 1, (n2, 2))
        _, cost = dtw_align(a, b, "l2")
        assert cost == dtw_enum_min_cost(_dist_matrix(a, b, "l2"))


def test_enumeration_pruning_is_exact(rng):
    for _ in range(10):
        d = rng.uniform(0, 1, (5, 6))
        assert dtw_enum_min_cost(d) == dtw_enum_min_cost_unpruned(d)


def test_dtw_cost_symmetry(rng):
    a = rng.normal(0, 1, (7, 3))
    b = rng.normal(0, 1, (9, 3))
    for dist in ("cosine", "l2"):
        _, ab = dtw_align(a, b, dist)
        _, ba = dtw_align(b, a, dist)
        assert abs(ab - ba) < 1e-9


def test_dtw_path_shape_invariants(rng):
    a = rng.normal(0, 1, (6, 2))
    b = rng.normal(0, 1, (9, 2))
    path, _ = dtw_align(a, b, "l2")
    assert tuple(path.pairs[0]) == (0, 0)
    assert tuple(path.pairs[-1]) == (5, 8)
    steps = np.diff(path.pairs, axis=0)
    assert all(tuple(s) in ((1, 0), (0, 1), (1, 1)) for s in steps)


_NONFINITE_ERROR = "non-finite input: frames must not contain NaN or inf"


def _assert_matches_loop(a, b, dist):
    """dtw_align gives the loop's path and cost, or raises its ValueError.

    The loop also runs on NaN/inf input, which always ends in a non-finite
    total; dtw_align rejects such input up front with its own message.
    """
    finite = np.isfinite(a).all() and np.isfinite(b).all()
    try:
        want_pairs, want_cost = dtw_loop_reference(a, b, dist)
    except ValueError as exc:
        want_error = str(exc) if finite else _NONFINITE_ERROR
    else:
        assert finite, "the loop found a finite path through non-finite input"
        path, cost = dtw_align(a, b, dist)
        assert np.array_equal(path.pairs, want_pairs)
        assert cost == want_cost
        return
    with pytest.raises(ValueError) as got:
        dtw_align(a, b, dist)
    assert str(got.value) == want_error


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(1, 4),
    st.sampled_from(["real", "ties", "nonfinite", "overflow"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dtw_matches_loop_reference(n1, n2, dims, values, seed):
    # "ties" draws small integers so many cells tie and the tie order decides
    # the path; "nonfinite" plants a NaN or inf input value; "overflow"
    # scales finite frames so that some l2 distances overflow to +inf (at
    # 10^153.5-10^155 about a fifth of the draws still have a finite path,
    # the rest overflow every path).
    rng = np.random.default_rng(seed)
    if values == "ties":
        a = rng.integers(0, 3, (n1, dims)).astype(float)
        b = rng.integers(0, 3, (n2, dims)).astype(float)
    else:
        a = rng.normal(0, 1, (n1, dims))
        b = rng.normal(0, 1, (n2, dims))
    if values == "nonfinite":
        a[rng.integers(n1), rng.integers(dims)] = rng.choice([np.nan, np.inf, -np.inf])
    if values == "overflow":
        scale = 10.0 ** rng.uniform(153.5, 155)
        a *= scale
        b *= scale
    for dist in ("cosine", "l2"):
        _assert_matches_loop(a, b, dist)


@pytest.mark.parametrize("fill", [None, 0])
@pytest.mark.parametrize("dist", ["cosine", "l2"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 9)], ids=lambda s: "%dx%d" % s)
def test_dtw_edge_shapes_match_loop_reference(rng, shape, dist, fill):
    # with one frame on either side the path runs along row 0 or column 0,
    # and n2 == 1 would make the anti-diagonal stride n2 - 1 zero; fill=None
    # draws normal frames, fill=0 zeroes every frame so that every cell ties
    # (l2 distance 0, cosine distance 1) and the tie order alone picks the path
    n1, n2 = shape
    a = rng.normal(0, 1, (n1, 3))
    b = rng.normal(0, 1, (n2, 3))
    if fill is not None:
        a.fill(fill)
        b.fill(fill)
    _assert_matches_loop(a, b, dist)


def test_dtw_rejects_nonfinite_input():
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[bad], [1.0]])
        with pytest.raises(ValueError, match="^non-finite input"):
            dtw_align(a, np.zeros((3, 1)), "l2")
        with pytest.raises(ValueError, match="^non-finite input"):
            dtw_align(np.zeros((3, 1)), a, "cosine")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_dtw_overflow_error_names_overflow():
    a = np.array([[1e200], [-1e200]])
    with pytest.raises(ValueError, match="overflow"):
        dtw_align(a, -a, "l2")


@pytest.mark.parametrize("dims", [*range(1, 9), 12, 80])
def test_l2_distance_build_matches_broadcast(rng, dims):
    # 700 x 300 frames, one row at a time; from 8 dims on, .sum adds pairwise
    a = rng.normal(0, 1, (700, dims))
    b = rng.normal(0, 1, (300, dims))
    out = np.empty((700, 300))
    _pairwise_distance(a, b, "l2", out)
    want = np.sqrt(np.square(a[:, None] - b[None]).sum(axis=2))
    assert np.array_equal(out, want)


def _dtw_peak(rng, n1, n2, dist, dims):
    a = rng.normal(0, 1, (n1, dims))
    b = rng.normal(0, 1, (n2, dims))
    tracemalloc.start()
    try:
        dtw_align(a, b, dist)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dist,dims", [("cosine", 80), ("l2", 4), ("l2", 1)])
def test_dtw_peak_memory_per_cell(rng, dist, dims):
    # the float64 cost matrix (8 B/cell), and no other array as large: the
    # growth from 600x700 to 1200x1400 frames is the matrix alone, while the
    # small-size bound leaves room for the per-frame temporaries
    small = _dtw_peak(rng, 600, 700, dist, dims)
    large = _dtw_peak(rng, 1200, 1400, dist, dims)
    assert small / (600 * 700) <= 11.0
    assert (large - small) / (1200 * 1400 - 600 * 700) <= 9.0


@pytest.mark.parametrize("snr_db", [None, 40])
def test_dtw_matches_loop_reference_large(rng, snr_db):
    # 400 x 520 frames, cosine on 80 dims and l2 on 4.
    # snr_db=None draws syn independently of ref; a number makes syn a
    # random monotone warp of ref plus noise at that SNR, so the path
    # follows the warp as it does for a synthesised copy of a recording
    ref = rng.normal(0, 1, (400, 80))
    if snr_db is None:
        syn = rng.normal(0, 1, (520, 80))
    else:
        warp = np.sort(rng.integers(0, 400, 520))
        syn = ref[warp] + rng.normal(0, 10.0 ** (-snr_db / 20), (520, 80))
    _assert_matches_loop(ref, syn, "cosine")
    _assert_matches_loop(ref[:, :4], syn[:, :4], "l2")


@pytest.mark.parametrize("dims", [8, 80])
def test_dtw_l2_matches_loop_reference_past_7_dims(rng, dims):
    # from 8 dims on, the squared differences must be added in .sum's
    # pairwise order for the costs to keep the loop's bits
    for _ in range(20):
        _assert_matches_loop(rng.normal(0, 1, (30, dims)), rng.normal(0, 1, (40, dims)), "l2")


@pytest.mark.parametrize("a,b", [(np.arange(5.0), np.arange(5.0) + 1), (np.zeros((3, 2)), np.zeros(2)),
                                 (np.zeros((2, 3, 2)), np.zeros((3, 2)))], ids=["1d-1d", "2d-1d", "3d-2d"])
def test_dtw_rejects_input_that_is_not_2d(a, b):
    message = f"expected 2-D frames x dims arrays, got shapes {a.shape} and {b.shape}"
    for dist in ("cosine", "l2"):
        with pytest.raises(ValueError) as got:
            dtw_align(a, b, dist)
        assert str(got.value) == message


def test_dtw_cell_budget_fails_before_allocating(monkeypatch):
    monkeypatch.setattr(compare, "DTW_MAX_CELLS", 11 * 13)
    assert dtw_align(np.ones((11, 2)), np.ones((13, 2)), "l2")[1] == 0.0
    monkeypatch.setattr(compare, "DTW_MAX_CELLS", 11 * 13 - 1)
    monkeypatch.setattr(compare, "_pairwise_distance", None)  # raising first, it is never reached
    message = "cannot align 11 x 13 frames: the cost matrix needs 1144 bytes, over the budget of 142 cells"
    with pytest.raises(ValueError, match=message):
        dtw_align(np.ones((11, 2)), np.ones((13, 2)))


def test_dtw_cell_budget_admits_two_minutes_a_side():
    assert compare.DTW_MAX_CELLS >= (120 * 22050 // 256) ** 2


def test_dtw_errors():
    with pytest.raises(ValueError, match="dimension"):
        dtw_align(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="empty"):
        dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="distance"):
        dtw_align(np.zeros((2, 2)), np.zeros((2, 2)), "manhattan")


# ------------------------------------------------------- mel distances


def test_mel_distances_identity(rng):
    s = _mel([speechy_frame(rng) for _ in range(10)])
    d = mel_distances(s, s)
    assert d.l1 == 0.0 and d.l2 == 0.0 and d.sconv == 0.0


def test_mel_distances_constant_offset(rng):
    frames = [speechy_frame(rng) for _ in range(12)]
    ref = _mel(frames)
    syn = LogMelSpectrogram(ref.values + 1.0)
    # the offset leaves the cosine-optimal path on the diagonal for this fixture
    path, _ = dtw_align(ref.values.T, syn.values.T, "cosine")
    assert np.array_equal(path.i, path.j)
    d = mel_distances(ref, syn)
    assert d.l1 == pytest.approx(1.0, abs=1e-12)
    assert d.l2 == pytest.approx(1.0, abs=1e-12)


def test_mel_distances_along_a_given_path(monkeypatch):
    """Scored along the given path, which repeats ref frame 0 where the cosine
    path would not; no alignment is computed."""
    ref = LogMelSpectrogram(np.array([[1.0, 3.0], [2.0, 5.0]]))
    syn = LogMelSpectrogram(np.array([[1.0, 2.0, 4.0], [0.0, 2.0, 5.0]]))
    path = DtwPath(np.array([[0, 0], [0, 1], [1, 2]]))
    assert dtw_align(ref.values.T, syn.values.T)[0].pairs.tolist() == [[0, 0], [1, 1], [1, 2]]
    monkeypatch.setattr(compare, "dtw_align", None)
    d = mel_distances(ref, syn, path)
    # aligned differences (0, 2), (-1, 0), (-1, 0); aligned ref norm sqrt(44)
    assert d.l1 == pytest.approx(4 / 6, abs=1e-15)
    assert d.l2 == pytest.approx(6 / 6, abs=1e-15)
    assert d.sconv == pytest.approx(np.sqrt(6 / 44), abs=1e-15)


def test_mel_distances_is_a_plain_three_field_tuple(rng):
    """It kept its path in an attribute outside the fields, which ``_replace`` dropped."""
    s = _mel([speechy_frame(rng) for _ in range(6)])
    d = mel_distances(s, s)
    copy = d._replace(l1=1.0)
    assert d == (0.0, 0.0, 0.0) and copy == (1.0, 0.0, 0.0)
    assert d._fields == copy._fields == ("l1", "l2", "sconv")
    assert not hasattr(d, "__dict__") and not hasattr(copy, "__dict__")


def test_mel_distances_band_mismatch(rng):
    a = LogMelSpectrogram(rng.normal(-6, 1, (80, 4)))
    b = LogMelSpectrogram(rng.normal(-6, 1, (40, 4)))
    with pytest.raises(ValueError, match="band"):
        mel_distances(a, b)


# ------------------------------------------------------- pitch metrics


def test_pitch_metrics_identity():
    f0 = np.array([110.0, 112.0, 0.0, 115.0, 0.0])
    voiced = f0 > 0
    c = PitchContour(f0, voiced)
    m = pitch_metrics(c, c)
    assert m.f0_rmse == 0.0
    assert m.pearson_r == pytest.approx(1.0)
    assert m.vuv_error == 0.0


def test_pitch_metrics_constant_shift():
    f0 = np.array([110.0, 118.0, 0.0, 125.0, 131.0])
    voiced = f0 > 0
    ref = PitchContour(f0, voiced)
    syn = PitchContour(np.where(voiced, f0 + 5.0, 0.0), voiced)
    m = pitch_metrics(ref, syn)
    assert m.f0_rmse == pytest.approx(5.0)
    assert m.pearson_r == pytest.approx(1.0)
    assert m.vuv_error == 0.0


def test_pitch_metrics_vuv_mismatch():
    # flags 1100 vs 1010 with values chosen so the alignment stays diagonal
    ref = PitchContour(np.array([1000.0, 2.0, 0.0, 0.0]), np.array([True, True, False, False]))
    syn = PitchContour(np.array([1000.0, 0.0, 1.0, 0.0]), np.array([True, False, True, False]))
    m = pitch_metrics(ref, syn)
    assert m.vuv_error == pytest.approx(0.5)


def test_pitch_metrics_pearson_affine_invariance(rng):
    f0 = 120.0 + 15.0 * rng.standard_normal(30).cumsum() / 10.0
    f0 = np.abs(f0) + 50.0
    voiced = np.ones_like(f0, dtype=bool)
    ref = PitchContour(f0, voiced)
    syn = PitchContour(f0 * 1.07 + 3.0, voiced)
    r1 = pitch_metrics(ref, syn).pearson_r
    syn2 = PitchContour((f0 * 1.07 + 3.0) * 2.5 + 40.0, voiced)
    r2 = pitch_metrics(ref, syn2).pearson_r
    assert abs(r1 - r2) < 1e-9
    assert r1 == pytest.approx(1.0)


def test_pitch_metrics_pearson_matches_reference(rng):
    n = 25
    f0a = 100.0 + rng.uniform(0, 40, n)
    f0b = f0a + rng.normal(0, 3, n)
    voiced = np.ones(n, dtype=bool)
    m = pitch_metrics(PitchContour(f0a, voiced), PitchContour(f0b, voiced))
    assert m.pearson_r == pytest.approx(pearson_reference(f0a, f0b), abs=1e-12)


def test_pitch_metrics_too_few_voiced_pairs():
    ref = PitchContour(np.array([100.0, 0.0, 0.0]), np.array([True, False, False]))
    syn = PitchContour(np.array([120.0, 0.0, 0.0]), np.array([True, False, False]))
    m = pitch_metrics(ref, syn)
    assert m.pearson_r is None
    assert m.f0_rmse == pytest.approx(20.0)


def test_pitch_metrics_no_pair_voiced_on_both_sides():
    ref = PitchContour(np.array([100.0, 110.0, 120.0]), np.ones(3, dtype=bool))
    syn = PitchContour(np.zeros(4), np.zeros(4, dtype=bool))
    path = DtwPath(np.array([[0, 0], [1, 1], [2, 2], [2, 3]]))
    assert pitch_metrics(ref, syn, path) == (None, None, 1.0)


def test_pitch_metrics_follow_the_given_path():
    ref = PitchContour(np.array([100.0, 110.0, 0.0]), np.array([True, True, False]))
    syn = PitchContour(np.array([100.0, 100.0, 110.0, 0.0]), np.array([True, True, True, False]))
    path = DtwPath(np.array([[0, 0], [0, 1], [1, 2], [2, 3]]))
    assert pitch_metrics(ref, syn, path) == (0.0, pytest.approx(1.0), 0.0)
    # frame by frame, ref's unvoiced last frame would meet syn's voiced third one
    with pytest.raises(ValueError, match="need a path"):
        pitch_metrics(ref, syn)
    with pytest.raises(ValueError, match="not at the contours' last frames"):
        pitch_metrics(ref, syn, DtwPath(path.pairs[:-1]))


def test_scorers_without_a_path_pair_frame_k_with_frame_k(rng, monkeypatch):
    """Only build_report aligns: without a path, the mel and pitch scorers take the diagonal."""
    monkeypatch.setattr(compare, "dtw_align", None)
    ref = _mel([speechy_frame(rng) for _ in range(6)])
    syn = LogMelSpectrogram(ref.values[:, ::-1])  # reversed frames: an alignment would leave the diagonal
    diff = ref.values - syn.values
    assert mel_distances(ref, syn) == (np.mean(np.abs(diff)), np.mean(np.square(diff)),
                                       np.linalg.norm(diff) / np.linalg.norm(ref.values))
    f0 = np.array([100.0, 0.0, 120.0, 130.0])
    assert pitch_metrics(PitchContour(f0, f0 > 0), PitchContour(f0[::-1], f0[::-1] > 0)).vuv_error == 0.5


def test_scorers_without_a_path_need_equal_frame_counts(rng):
    ref = _mel([speechy_frame(rng) for _ in range(6)])
    with pytest.raises(ValueError, match="^sequences of 6 and 5 frames need a path to be paired$"):
        mel_distances(ref, LogMelSpectrogram(ref.values[:, :5]))
    f0 = np.array([100.0, 0.0, 120.0])
    with pytest.raises(ValueError, match="^sequences of 2 and 3 frames need a path to be paired$"):
        pitch_metrics(PitchContour(f0[:2], f0[:2] > 0), PitchContour(f0, f0 > 0))


def test_pitch_contour_validation():
    with pytest.raises(ValueError):
        PitchContour(np.array([100.0, 0.0]), np.array([True, True]))
    with pytest.raises(ValueError):
        PitchContour(np.array([100.0]), np.array([True, False]))


# ------------------------------------------------ deltas and curve MAE


def _bundle(frames, f0=None, tokens=None, duration=1.0):
    pitch = None
    if f0 is not None:
        f0 = np.asarray(f0, dtype=float)
        pitch = PitchContour(f0, f0 > 0)
    return analyze_mel(_mel(frames), duration, pitch, tokens)


def test_utterance_deltas_identity(rng):
    frames = [speechy_frame(rng) for _ in range(6)]
    f0 = [110.0, 115.0, 0.0, 120.0, 0.0, 118.0]
    a = _bundle(frames, f0, tokens=12, duration=2.0)
    b = _bundle(frames, f0, tokens=12, duration=2.0)
    d = utterance_deltas(a, b)
    assert d.delta_mu_f0 == 0.0 and d.delta_sigma_f0 == 0.0 and d.delta_spr == 0.0
    assert d.delta_hqer == 0.0 and d.delta_croll95 == 0.0


def test_utterance_deltas_scaled_pitch(rng):
    frames = [speechy_frame(rng) for _ in range(4)]
    f0 = np.array([100.0, 120.0, 0.0, 140.0])
    ref = _bundle(frames, f0)
    syn = _bundle(frames, np.where(f0 > 0, f0 * 1.1, 0.0))
    d = utterance_deltas(ref, syn)
    voiced = f0[f0 > 0]
    assert d.delta_mu_f0 == pytest.approx(0.1 * voiced.mean())
    assert d.delta_sigma_f0 == pytest.approx(0.1 * voiced.std())


def test_utterance_deltas_missing_tokens(rng):
    frames = [speechy_frame(rng) for _ in range(3)]
    d = utterance_deltas(_bundle(frames), _bundle(frames))
    assert d.delta_spr is None
    assert d.delta_mu_f0 is None


def test_metric_curve_mae_identity(rng):
    um = _um([speechy_frame(rng) for _ in range(8)])
    mae = metric_curve_mae(um, um)
    assert mae == (0.0, 0.0, 0.0, 0.0)


def test_metric_curve_mae_offset_in_one_metric(rng):
    um_ref = _um([speechy_frame(rng) for _ in range(8)])
    import copy

    um_syn = copy.deepcopy(um_ref)
    um_syn.hqer = um_syn.hqer + 0.02
    mae = metric_curve_mae(um_ref, um_syn)
    assert mae.hqer == pytest.approx(0.02, abs=1e-12)
    assert mae.cslope == 0.0 and mae.ccentroid == 0.0 and mae.croll95 == 0.0


def _um_on_grid(frames, hqer, grid_frames):
    """Metrics with ``hqer`` on the usable ``frames`` of a ``grid_frames`` grid, the other series 0."""
    hqer = np.asarray(hqer, dtype=float)
    return UtteranceMetrics(np.asarray(frames), grid_frames, hqer=hqer, cslope=0 * hqer, ccentroid=0 * hqer,
                            croll95=np.zeros(hqer.size, dtype=int))


def test_metric_curve_mae_skips_pairs_with_an_unusable_frame():
    ref = _um_on_grid([0, 1, 3], [0.5, 0.6, 0.7], 4)  # frame 2 is unusable
    syn = _um_on_grid([0, 1, 2, 3], [0.5, 0.6, 9.0, 0.8], 4)
    diagonal = DtwPath(np.repeat(np.arange(4), 2).reshape(-1, 2))
    for path in (diagonal, None):
        assert metric_curve_mae(ref, syn, path).hqer == pytest.approx(0.1 / 3, abs=1e-15)
    # here syn's frame 2 also meets ref's usable frame 1; the pair (2, 2) still does not count
    path = DtwPath(np.array([[0, 0], [1, 1], [1, 2], [2, 2], [3, 3]]))
    assert metric_curve_mae(ref, syn, path).hqer == pytest.approx((8.4 + 0.1) / 4, abs=1e-15)
    # no pair has two usable frames
    none_both = _um_on_grid([0], [0.5], 2), _um_on_grid([1], [0.5], 2)
    assert metric_curve_mae(*none_both, DtwPath(np.array([[0, 0], [1, 1]]))) == (None,) * 4
    assert metric_curve_mae(*none_both) == (None,) * 4


def test_metric_curve_mae_without_a_path_needs_equal_grids(rng):
    """Like the mel and pitch scorers, it pairs frame k with frame k only on
    grids of equal length; it once scored 5 and 9 frames over the union of
    their usable frames."""
    ref, syn = (_um([speechy_frame(rng) for _ in range(n)]) for n in (5, 9))
    assert (ref.grid_frames, syn.grid_frames) == (5, 9)
    with pytest.raises(ValueError, match="^sequences of 5 and 9 frames need a path to be paired$"):
        metric_curve_mae(ref, syn)


def _union_path_mae(ref, syn):
    """The pairing ``metric_curve_mae`` used without a path before records knew
    their grid: frame k with frame k over the union of both usable sets."""
    frames = np.union1d(ref.frame_indices, syn.frame_indices)
    return metric_curve_mae(ref, syn, DtwPath(np.stack([frames, frames], axis=1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(*[st.lists(st.booleans(), min_size=n, max_size=n)
                                                        .filter(any)] * 2)),  # utterance_metrics keeps a frame
       st.integers(0, 2**32 - 1))
def test_metric_curve_mae_on_equal_grids_is_the_diagonal_and_the_union(masks, seed):
    rng = np.random.default_rng(seed)
    ref, syn = (_um_on_grid(np.flatnonzero(mask), rng.random(sum(mask)), len(mask)) for mask in masks)
    mae = metric_curve_mae(ref, syn)
    assert mae == metric_curve_mae(ref, syn, compare._diagonal(len(masks[0]), len(masks[1])))
    assert mae == _union_path_mae(ref, syn)


def test_build_report_scores_pitch_on_the_frame_grid(rng):
    """``frame_pitch``, not the contour as read, meets the mel path; the deltas use the contour as read."""
    frames = [speechy_frame(rng) for _ in range(4)]
    on_grid = PitchContour(np.array([100.0, 120.0, 0.0, 140.0]), np.array([True, True, False, True]))
    as_read = PitchContour(np.array([100.0, 120.0, 0.0, 0.0, 140.0, 500.0]), np.array([1, 1, 0, 0, 1, 1], bool))
    ref = analyze_mel(_mel(frames), 1.0, as_read, frame_pitch=on_grid)
    syn = analyze_mel(_mel(frames), 1.0, on_grid)
    assert syn.frame_pitch is syn.pitch
    report = build_report(ref, syn)
    assert (report.f0_rmse, report.vuv_error) == (0.0, 0.0)
    assert report.delta_mu_f0 == pytest.approx(120.0 - 215.0)


@pytest.mark.parametrize("side", ["ref", "syn"])
def test_build_report_needs_each_bundles_parts_on_its_mel_grid(rng, side):
    """A 7-value frame_pitch on a 5-frame mel once failed deep in
    pitch_metrics, at the path's end; the bundle check names side, part and counts."""
    frames = [speechy_frame(rng) for _ in range(5)]
    good = _bundle(frames, [110.0, 0.0, 120.0, 118.0, 0.0])
    long_pitch = _bundle(frames, [110.0, 0.0, 120.0, 118.0, 0.0, 121.0, 122.0])
    pair = (long_pitch, good) if side == "ref" else (good, long_pitch)
    with pytest.raises(ValueError, match=f"^the {side} bundle's frame_pitch covers 7 frames, its mel 5$"):
        build_report(*pair)
    six = _um([speechy_frame(rng) for _ in range(6)])
    pair = [good, good]
    pair[side == "syn"] = dataclasses.replace(good, metrics=six)
    with pytest.raises(ValueError, match=f"^the {side} bundle's metrics covers 6 frames, its mel 5$"):
        build_report(*pair)


def test_build_report_needs_each_bundles_mel(rng):
    with_mel = _bundle([speechy_frame(rng) for _ in range(4)])
    without = dataclasses.replace(with_mel, mel=None)
    for ref, syn in ((with_mel, without), (without, with_mel)):
        with pytest.raises(ValueError, match=r"\bmel\b"):
            build_report(ref, syn)


def test_bundle_measures_follow_measures_order(rng):
    bundle = _bundle([speechy_frame(rng) for _ in range(4)], [110.0, 0.0, 120.0, 118.0], tokens=5)
    assert list(bundle.measures()) == list(MEASURES)
    assert None not in bundle.measures().values()


# --------------------------------------------------- report and CSV IO


def test_report_json_field_names(rng):
    frames = [speechy_frame(rng) for _ in range(6)]
    f0 = [110.0, 115.0, 0.0, 120.0, 0.0, 118.0]
    ref = _bundle(frames, f0, tokens=10, duration=1.5)
    syn = _bundle(frames, f0, tokens=10, duration=1.5)
    report = build_report(ref, syn)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "l1", "l2", "sconv", "f0_rmse", "pearson_r", "vuv_error",
        "mae_hqer", "mae_cslope", "mae_ccentroid", "mae_croll95",
        "delta_mu_f0", "delta_sigma_f0", "delta_spr",
        "delta_hqer", "delta_cslope", "delta_ccentroid", "delta_croll95",
    ]
    assert payload["l1"] == 0.0
    assert payload["pearson_r"] == 1.0


def test_report_missing_fields_serialize_null(rng):
    frames = [speechy_frame(rng) for _ in range(4)]
    ref = _bundle(frames)
    syn = _bundle(frames)
    report = build_report(ref, syn)
    payload = json.loads(report.to_json())
    assert payload["f0_rmse"] is None
    assert payload["delta_spr"] is None


def test_load_pitch_csv(tmp_path):
    path = tmp_path / "f0.csv"
    dt = 256 / 22050
    rows = ["time_s,f0_hz"]
    values = [120.5, 0.0, None, 131.25, -1.0]
    for i, v in enumerate(values):
        rows.append(f"{i * dt:.8f},{'' if v is None else v}")
    path.write_text("\n".join(rows) + "\n")
    c = load_pitch_csv(path)
    assert np.array_equal(c.voiced, [True, False, False, True, False])
    assert c.f0[0] == 120.5 and c.f0[3] == 131.25
    assert np.all(c.f0[~c.voiced] == 0.0)


def test_load_pitch_csv_skips_blank_rows_and_rows_without_a_time(tmp_path):
    # a row without a time is skipped only when its f0 cell is blank too
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n\n0.0,100\n,\n  ,  \n\n0.01160998,\n")
    c = load_pitch_csv(path)
    assert np.array_equal(c.f0, [100.0, 0.0]) and np.array_equal(c.voiced, [True, False])


def test_load_pitch_csv_accepts_utf8_bom(tmp_path):
    """Excel's "CSV UTF-8" and Notepad start the file with a byte-order mark."""
    path = tmp_path / "f0.csv"
    path.write_bytes(b"\xef\xbb\xbftime_s,f0_hz\n0.0,100\n0.01160998,\n")
    c = load_pitch_csv(path)
    assert np.array_equal(c.f0, [100.0, 0.0]) and np.array_equal(c.voiced, [True, False])


def test_load_pitch_csv_rejects_nonuniform_times(tmp_path):
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n0.0,100\n0.0116,101\n0.5,102\n")
    with pytest.raises(ValueError, match="uniform"):
        load_pitch_csv(path)


@pytest.mark.parametrize("start", [5.0, -0.0116, 2e-6])
def test_load_pitch_csv_rejects_a_late_or_early_start(tmp_path, start):
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n" + "".join(f"{start + k * 256 / 22050:.9f},100\n" for k in range(3)))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} starts at {start:g} s, not at 0"):
        load_pitch_csv(path)


def test_load_pitch_csv_accepts_a_start_within_1e6_s_of_0(tmp_path):
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n" + "".join(f"{5e-7 + k * 256 / 22050:.9f},100\n" for k in range(3)))
    assert load_pitch_csv(path).f0.size == 3


# The NaN time passed the spacing check (NaN > 1e-6 is False) and the NaN f0
# read as unvoiced.
@pytest.mark.parametrize(
    "rows, bad_row",
    [
        ("0.0,100\nnan,110\n0.02322,120", 3),
        ("0.0,100\n0.01161,nan\n0.02322,120", 3),
        ("0.0,100\n0.01161,110\n0.02322,inf", 4),
        ("-inf,100", 2),
        ("0.0,100\n0.01161,-inf", 3),
        ("0.0,100\n0.01161,fast", 3),
        # an empty time cell next to an f0 value dropped that f0 without an error
        (",95\n0.0,100\n0.011609977,110", 2),
        ("0.0,100\n0.011609977,110\n,120", 4),
    ],
    ids=["nan-time", "nan-f0", "inf-f0", "minus-inf-time", "minus-inf-f0", "text-f0", "empty-time-leading",
         "empty-time-trailing"],
)
def test_load_pitch_csv_rejects_non_finite_cells(tmp_path, rows, bad_row):
    path = tmp_path / "f0.csv"
    path.write_text("time_s,f0_hz\n" + rows + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} row {bad_row}: expected finite numbers"):
        load_pitch_csv(path)


@pytest.mark.parametrize("content, cause", [
    (b"time_s,f0_hz\n0.0,\xff\n", "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
    (b"time_s,f0_hz\n0.0," + b"1" * (1 << 18) + b"\n", r"field larger than field limit \(131072\)"),
], ids=["not-utf8", "field-over-the-csv-limit"])
def test_load_pitch_csv_that_cannot_be_parsed_names_its_file(tmp_path, content, cause):
    """The codec's and the csv module's errors reached errors.log without
    the path, and a compare entry reads two CSVs."""
    path = tmp_path / "f0.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"^cannot parse pitch CSV {re.escape(str(path))}: {cause}$"):
        load_pitch_csv(path)


def test_load_pitch_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "f0.csv"
    path.write_text("time,f0\n0.0,100\n")
    with pytest.raises(ValueError, match="header"):
        load_pitch_csv(path)
