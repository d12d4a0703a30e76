"""Code vector families and quasi-orthogonal block constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_coding.codes import alamouti_n, gram, make_c

RNG = np.random.default_rng(20240817)


def test_linear_h_vector():
    np.testing.assert_allclose(make_c("linear-h", 4, h=2.0),
                               [1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(make_c("linear-h", 2, h=2.0), [1.0, 2.0])
    np.testing.assert_array_equal(make_c("linear-h", 4, h=1.0), np.ones(4))
    c = make_c("linear-h", 4, h=0.5)
    assert np.all(np.diff(c.real) < 0) and c[0] == 1.0 and c[-1] == 0.5
    # one entry spans nothing: it is the start 1, whatever h is
    np.testing.assert_array_equal(make_c("linear-h", 1, h=3.0), [1.0 + 0j])


def test_geometric_vector():
    c = make_c("geometric", 4, a=2.0, r=0.5)
    np.testing.assert_allclose(c, [2.0, 1.0, 0.5, 0.25], rtol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown code vector kind"):
        make_c("banana", 4)
    with pytest.raises(ValueError, match="n must be positive"):
        make_c("linear-h", 0)
    with pytest.raises(ValueError, match="h must be positive"):
        make_c("linear-h", 4, h=0.0)


def _cell(c1, c2):
    """The explicit 2x2 Alamouti cell [[c1, c2], [-conj(c2), conj(c1)]]."""
    return np.array([[c1, c2], [-np.conj(c2), np.conj(c1)]])


def test_alamouti2_layout():
    np.testing.assert_array_equal(alamouti_n([1.0, 1.0]), [[1, 1], [-1, 1]])
    np.testing.assert_array_equal(alamouti_n([1.0, 1.0j]),
                                  [[1, 1j], [1j, 1]])


def test_alamouti2_columns_orthogonal():
    c1 = complex(RNG.normal(), RNG.normal())
    c2 = complex(RNG.normal(), RNG.normal())
    g = gram(alamouti_n([c1, c2]))
    assert abs(g[0, 1]) < 1e-14 and abs(g[1, 0]) < 1e-14
    assert g[0, 0] == pytest.approx(abs(c1) ** 2 + abs(c2) ** 2)


def test_recursive_base_case_matches():
    # the recursion bottoms out at 1x1 cells, so order 2 is exactly the
    # explicit Alamouti cell
    c = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    np.testing.assert_array_equal(alamouti_n(c), _cell(c[0], c[1]))


def test_block_structure_n4():
    c = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    m = alamouti_n(c)
    a = _cell(c[0], c[1])
    b = _cell(c[2], c[3])
    np.testing.assert_array_equal(m[:2, :2], a)
    np.testing.assert_array_equal(m[:2, 2:], b)
    np.testing.assert_array_equal(m[2:, :2], -b.conj())
    np.testing.assert_array_equal(m[2:, 2:], a.conj())
    # second row spelled out
    np.testing.assert_array_equal(
        m[1], [-np.conj(c[1]), np.conj(c[0]), -np.conj(c[3]), np.conj(c[2])])


def test_entry_magnitudes_are_code_amplitudes():
    c = make_c("linear-h", 8, h=2.0)
    m = alamouti_n(c)
    want = sorted(abs(x) for x in c)
    for j in range(8):
        assert sorted(np.abs(m[:, j])) == pytest.approx(want)


def test_gram_quasi_orthogonal_pattern():
    c = make_c("linear-h", 4, h=2.0)
    g = gram(alamouti_n(c))
    s4 = float(np.sum(np.abs(c) ** 2))  # 86/9
    np.testing.assert_allclose(np.diag(g), s4, rtol=1e-14)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert abs(g[i, j]) < 1e-14 and abs(g[j, i]) < 1e-14
    cross = 2.0 * (c[0] * c[3] - c[1] * c[2])  # -4/9 here
    assert g[0, 3] == pytest.approx(cross, rel=1e-12)
    assert g[0, 3] == pytest.approx(-4.0 / 9.0, rel=1e-12)


def test_gram_hadamard_at_unit_h():
    g = gram(alamouti_n(np.ones(4)))
    np.testing.assert_allclose(g, 4.0 * np.eye(4), atol=1e-14)


def test_gram_pattern_scale_invariant():
    c = make_c("linear-h", 4, h=2.0)
    g1 = gram(alamouti_n(c))
    g2 = gram(alamouti_n(3.0j * c))
    np.testing.assert_allclose(g2, 9.0 * g1, atol=1e-12)


def test_geometric_columns_orthogonal():
    # real geometric vectors keep all column pairs exactly orthogonal
    c = make_c("geometric", 4, a=1.0, r=1.7)
    g = gram(alamouti_n(c))
    off = ~np.eye(4, dtype=bool)
    assert float(np.max(np.abs(g[off]))) < 1e-12


def test_code_matrix_accessors():
    c = np.ones(4)
    m = alamouti_n(c)
    assert isinstance(m, np.ndarray)
    assert m.shape == (4, 4) and m.dtype == complex
    c[0] = 99.0  # the matrix is built from copies, never views of c
    assert m[0, 0] == 1.0


def test_length_validation():
    # the order is len(c), which must be a power of two >= 2
    for n in (3, 6, 1):
        with pytest.raises(ValueError, match="is not a power of two"):
            alamouti_n(np.ones(n))


def test_code_matrix_must_be_square():
    # c is the parameter vector; a matrix in its place is refused
    with pytest.raises(ValueError, match="one-dimensional"):
        alamouti_n(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# algebraic invariants of the construction
# ---------------------------------------------------------------------------

_orders = st.sampled_from([2, 4, 8, 16])
_finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=_orders)
def test_every_column_carries_the_vector_power(data, n):
    c = np.array(data.draw(st.lists(st.builds(complex, _finite, _finite),
                                    min_size=n, max_size=n)))
    norms = np.sum(np.abs(alamouti_n(c)) ** 2, axis=0)
    np.testing.assert_allclose(norms, np.sum(np.abs(c) ** 2), rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=_orders, x=_finite)
def test_constant_real_vector_gives_a_scaled_identity_gram(n, x):
    # a constant real c is x times a Hadamard matrix; the off-diagonal
    # entries cancel to rounding of the n * x^2 diagonal
    g = gram(alamouti_n(np.full(n, x)))
    scale = n * x ** 2
    np.testing.assert_allclose(g, scale * np.eye(n), rtol=1e-15,
                               atol=4 * n * np.finfo(float).eps * scale)


def _zero_pattern(n, h):
    g = np.abs(gram(alamouti_n(make_c("linear-h", n, h=h))))
    return g <= 1e-12 * g.max()


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 8, 16]), h=st.floats(1.1, 4.0))
def test_linear_h_zero_pattern_does_not_depend_on_h(n, h):
    zeros = _zero_pattern(n, h)
    np.testing.assert_array_equal(zeros, _zero_pattern(n, 2.0))
    assert int(zeros.sum()) == {4: 8, 8: 32, 16: 144}[n]
