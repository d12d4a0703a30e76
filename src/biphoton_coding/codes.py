"""Quasi-orthogonal block codes built from the Alamouti cell.

A code is a square complex ndarray whose *columns* are the codewords:
`make_c` builds the parameter vector c and `alamouti_n(c)` the code
matrix of order len(c).  For an all-equal real parameter vector the
construction collapses to a Hadamard matrix and every column pair is
orthogonal; for generic parameters only specific column pairs are, which
is what makes the codes quasi-orthogonal.
"""

from __future__ import annotations

import numpy as np

from .spectra import require_grid_memory


def make_c(kind: str, n: int, h: float = 2.0, a: complex = 1.0,
           r: complex = 1.0) -> np.ndarray:
    """The parameter vector c of length n.

    kind="linear-h": n equally spaced reals spanning [1, h] inclusive
    (descending when h < 1), e.g. n=4, h=2 gives (1, 4/3, 5/3, 2).
    kind="geometric": c_l = a * r**(l-1).
    Raises GridTooLarge, before building c, when the n x n code matrix
    would pass spectra.MAX_GRID_BYTES.
    """
    if kind not in ("linear-h", "geometric"):
        raise ValueError(f"unknown code vector kind {kind!r}")
    if n < 1:
        raise ValueError("n must be positive")
    require_grid_memory(n * n, f"the order-{n} code matrix")
    if kind == "geometric":
        return a * r ** np.arange(n)
    if h <= 0:
        raise ValueError("h must be positive")
    if n == 1:
        return np.array([1.0 + 0j])
    return (1.0 + (h - 1.0) * np.arange(n) / (n - 1)).astype(complex)


def alamouti_n(c) -> np.ndarray:
    """Recursive block construction of the code matrix of order len(c).

    C(1..n) = [[C(1..n/2),        C(n/2+1..n)],
               [-conj(C(n/2+1..n)), conj(C(1..n/2))]]

    down to the 1x1 cells [c_l], so order 2 is the Alamouti cell
    [[c1, c2], [-conj(c2), conj(c1)]].  len(c) must be a power of two >= 2.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1:
        raise ValueError(f"c must be one-dimensional, got shape {c.shape}")
    n = len(c)
    if n < 2 or n & (n - 1):
        raise ValueError(f"order {n} is not a power of two >= 2")
    return _build(c)


def _build(c: np.ndarray) -> np.ndarray:
    if len(c) == 1:
        return c[:, None]
    half = len(c) // 2
    a = _build(c[:half])
    b = _build(c[half:])
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


def gram(code: np.ndarray) -> np.ndarray:
    """Conjugate inner products of column pairs, G[i, j] = <col_i, col_j>.

    For generic parameters the order-4 code has zeros exactly at the
    column pairs (1,2), (1,3), (2,4), (3,4) (1-based) and their mirrors.
    """
    return code.conj().T @ code
