"""Pair placement layouts, decodability, and factorized decode weights."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding.errors import CycleDetected, ValidityWarning
from biphoton_coding.layout import ChannelLayout, dimension, factor_decode, staircase, validate

FOUR_CYCLE = {(1, 1): (1, 1), (1, 2): (2, 2), (2, 1): (1, 2), (2, 2): (2, 1)}


def test_staircase_placement():
    lay = staircase(2, 4)
    assert lay.placement[(1, 1)] == (1, -1)
    assert lay.placement[(1, 4)] == (4, -4)
    assert lay.placement[(2, 1)] == (1, 0)
    assert lay.placement[(2, 4)] == (4, -3)
    assert len(lay.placement) == 8
    assert lay.delta_r == (0.0, -100.0)  # one ridge per channel


def test_staircase_channels_share_one_antidiagonal():
    lay = staircase(4, 4, bin_width=50.0)
    for r in range(1, 5):
        antis = {k + kp for (rr, _), (k, kp) in lay.placement.items() if rr == r}
        assert len(antis) == 1


def test_staircase_rejects_odd_m():
    with pytest.raises(ValueError, match="pairs per channel must be even, got 3"):
        staircase(2, 3)


def test_pair_shift_arithmetic():
    lay = staircase(2, 4, bin_width=80.0)
    k, kp = lay.placement[(2, 3)]
    shift = lay.pair_shift(2, 3, weight=0.5j)
    assert shift.weight == 0.5j
    assert shift.delta_p == kp * 80.0
    assert shift.delta_q == -(k + kp) * 80.0
    assert shift.signal_center == k * 80.0


def test_dimension_is_codebook_size():
    assert dimension(staircase(2, 8)) == 64
    assert dimension(staircase(4, 4)) == 256
    assert dimension(staircase(8, 2)) == 256


def test_validate_staircase_tree():
    assert validate(staircase(2, 4)) == {
        "valid": True, "dof": 1, "nodes": 9, "edges": 8, "components": 1}


def test_validate_detects_four_cycle():
    with pytest.raises(CycleDetected) as exc:
        validate(ChannelLayout(r=2, m=2, placement=FOUR_CYCLE))
    assert len(exc.value.cycle) == 4


def test_validate_warns_on_close_ridges():
    # ridge gap is bin_width; gaps under 20/tau leave ridge crosstalk
    with pytest.warns(ValidityWarning):
        validate(staircase(2, 4), tau=0.1)
    info = validate(staircase(2, 4), tau=1.0)
    assert info["valid"]


def test_placement_must_cover_all_channels():
    with pytest.raises(ValueError):
        ChannelLayout(r=2, m=2, placement={(1, 1): (1, -1), (1, 2): (2, -2),
                                           (2, 1): (1, 0)})
    with pytest.raises(ValueError):
        ChannelLayout(r=1, m=2, placement={(1, 1): (1, -1), (1, 2): (1, -1)})
    # the right count, but a key outside 1..r x 1..m (slots are 1-based)
    for keys in ([(1, 1), (7, 9)], [(0, 1), (1, 2)]):
        with pytest.raises(ValueError, match="placement keys"):
            ChannelLayout(r=1, m=2,
                          placement=dict(zip(keys, [(0, 0), (1, 1)])))


def test_factor_decode_roundtrip():
    rng = np.random.default_rng(11)
    for r, m in ((2, 4), (4, 4)):
        lay = staircase(r, m)
        target = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        sw, iw = factor_decode(lay, target)
        scale = float(np.max(np.abs(target)))
        for rr in range(1, r + 1):
            for mm in range(1, m + 1):
                k, kp = lay.placement[(rr, mm)]
                err = abs(sw[k] * iw[kp] - target[rr - 1, mm - 1])
                assert err < 1e-12 * scale


def test_factor_decode_gauge():
    lay = staircase(2, 4)
    sw, _ = factor_decode(lay, np.full((2, 4), 2.0 + 0.0j))
    assert any(abs(v - 1.0) < 1e-12 for v in sw.values())


def test_factor_decode_zero_on_leaf():
    lay = staircase(2, 4)
    target = np.ones((2, 4), complex)
    target[0, 3] = 0.0  # cell (4, -4); idler node -4 is a leaf
    sw, iw = factor_decode(lay, target)
    k, kp = lay.placement[(1, 4)]
    assert sw[k] * iw[kp] == 0.0
    k2, kp2 = lay.placement[(2, 4)]
    assert abs(sw[k2] * iw[kp2] - 1.0) < 1e-12
    # signal bin 1 is a zero leaf, so bin 2, the smallest other signal
    # bin, carries the component's gauge
    lay = _layout(1, 4, [(1, -1), (2, -1), (2, -2), (3, -2)])
    assert factor_decode(lay, [[0.0, 2.0, 3.0j, 6.0j]]) == (
        {1: 0.0, 2: 1.0, 3: 2.0}, {-1: 2.0, -2: 3.0j})
    # all-zero stars: zeros take the leaves and the hub is the gauge root,
    # an idler bin when every signal bin is a zero leaf; a bare edge is a
    # one-edge star whose idler end takes the zero
    for cells, want in (
            ([(1, -1), (2, -1), (3, -1)], ({1: 0, 2: 0, 3: 0}, {-1: 1})),
            ([(1, -1), (1, -2)], ({1: 1}, {-1: 0, -2: 0})),
            ([(1, -1)], ({1: 1}, {-1: 0}))):
        star = _layout(1, len(cells), cells)
        assert factor_decode(star, np.zeros((1, len(cells)))) == want


def test_factor_decode_zero_on_shared_cell_infeasible():
    lay = staircase(2, 4)
    target = np.ones((2, 4), complex)
    target[0, 0] = 0.0  # cell (1, -1); both endpoints shared with channel 2
    with pytest.raises(ValueError, match="requests decode 0 on a shared cell"):
        factor_decode(lay, target)


def test_factor_decode_shape_checked():
    with pytest.raises(ValueError, match="expected codeword array of shape"):
        factor_decode(staircase(2, 4), np.ones((4, 2), complex))


def _layout(r, m, cells):
    slots = [(rr, mm) for rr in range(1, r + 1) for mm in range(1, m + 1)]
    return ChannelLayout(r=r, m=m, placement=dict(zip(slots, cells)))


@st.composite
def placements(draw, bins=4):
    """Random layouts on a small bin grid, so cycles are common."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, bins - 1),
                                    st.integers(-bins, -1)),
                          min_size=r * m, max_size=r * m, unique=True))
    return _layout(r, m, cells)


@st.composite
def forests(draw):
    """Random acyclic layouts: every new cell brings at least one new bin."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    sig, idl, cells = [], [], []
    for _ in range(r * m):
        kind = draw(st.sampled_from(["new s", "new i", "both new"]))
        k = draw(st.sampled_from(sig)) if kind == "new i" and sig else len(sig)
        kp = draw(st.sampled_from(idl)) if kind == "new s" and idl \
            else -1 - len(idl)
        if k == len(sig):
            sig.append(k)
        if kp == -1 - len(idl):
            idl.append(kp)
        cells.append((k, kp))
    return _layout(r, m, draw(st.permutations(cells)))


@settings(max_examples=300, deadline=None)
@given(placements())
def test_validate_reports_a_real_cycle_or_a_forest(lay):
    cells = set(lay.placement.values())
    try:
        info = validate(lay)
    except CycleDetected as exc:
        cycle = exc.cycle
        assert len(cycle) >= 4 and len(cycle) % 2 == 0
        assert len(set(cycle)) == len(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert {a[0], b[0]} == {"s", "i"}
            s, i = (a, b) if a[0] == "s" else (b, a)
            assert (s[1], i[1]) in cells
        return
    nodes = len({k for k, _ in cells}) + len({kp for _, kp in cells})
    assert info["nodes"] == nodes and info["edges"] == len(cells)
    assert info["dof"] == nodes - len(cells) == info["components"]


@settings(max_examples=200, deadline=None)
@given(forests(), st.data())
def test_factor_decode_round_trips_random_forests(lay, data):
    cells = lay.placement.values()
    degree = Counter([("s", k) for k, _ in cells]
                     + [("i", kp) for _, kp in cells])
    target = np.empty((lay.r, lay.m), complex)
    for (r, m), (k, kp) in lay.placement.items():
        leaf = degree[("s", k)] == 1 or degree[("i", kp)] == 1
        if leaf and data.draw(st.booleans()):
            target[r - 1, m - 1] = 0.0
        else:
            mod = data.draw(st.floats(0.5, 2.0))
            phase = data.draw(st.floats(-np.pi, np.pi))
            target[r - 1, m - 1] = mod * np.exp(1j * phase)
    sw, iw = factor_decode(lay, target)
    for (r, m), (k, kp) in lay.placement.items():
        want = target[r - 1, m - 1]
        assert abs(sw[k] * iw[kp] - want) <= 1e-12 * max(1.0, abs(want))
