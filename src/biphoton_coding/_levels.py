"""Exact 12-digit level keys and the blocked level-table convolution.

correlation.level_summary imports this module on its first call, so the
commands that build no level table do not compile it.  A level key is
one integer: the matched-channel count k from bit 50 up, then a
12-significant-digit decimal N * 10**(e - 11) with N in [1e11, 1e12), as
the exponent field e + 400 (bits 40-49) and N (bits 0-39).  Distinct value
keys are exactly the distinct float(f"{v:.12g}"), so grouping on keys
merges exactly the sums a dict keyed on that rounding merges.  Zero is key
0; infinity and NaN take exponent fields no double reaches.  Keys sort as
their levels do: by matched count, then by value, with infinity and then
NaN above every finite value.
"""

from __future__ import annotations

import math

import numpy as np

_E_BIAS, _N_BITS, _K_SHIFT = 400, 40, 50
_N_MASK = (1 << _N_BITS) - 1
_VALUE_MASK = (1 << _K_SHIFT) - 1
_INF_KEY, _NAN_KEY = 1000 << _N_BITS, 1001 << _N_BITS
# 10**t for t = 0..44 as an unevaluated sum of two doubles, hi + lo;
# hi alone is exact up to t = 22
_POW10 = np.array([float(10 ** t) for t in range(45)])
_POW10_LO = np.array([float(10 ** t - int(float(10 ** t))) for t in range(45)])
_SPLIT = 2.0 ** 27 + 1.0                                  # Veltkamp split
# sums rounded per block: bounds the temporaries of each regrouping
_BLOCK_SUMS = 2 ** 16


def _two_product(a, b):
    """Dekker's error-free product: a * b == hi + lo exactly."""
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decimal_keys(values) -> np.ndarray:
    """Value keys of float(f"{v:.12g}") for v >= 0, infinity or NaN.

    With s = 11 - floor(log10 v), the mantissa N rounds q = v * 10**s to
    nearest.  q is taken as hi + lo from two chained error-free products,
    by 10**min(s, 22) and then by 10**max(s - 22, 0) (exactly 1.0 for
    s <= 22); the error of lo is far below the spacing of hi, so the sign
    of frac(hi) - 1/2 + lo decides.  Near-ties, exact ties included, and
    what this cannot certify (s outside [0, 44], subnormals, a misjudged
    exponent) go through Python's own formatting.
    """
    v = np.asarray(values, dtype=float)
    shape, v = v.shape, v.ravel()
    keys = np.zeros(v.shape, dtype=np.int64)
    keys[np.isinf(v)] = _INF_KEY
    keys[np.isnan(v)] = _NAN_KEY
    done = (v == 0) | ~np.isfinite(v)

    idx = np.flatnonzero(~done)
    idx = idx[(v[idx] >= 1e-33) & (v[idx] < 1e12)]
    x = v[idx]
    e = np.floor(np.log10(x)).astype(np.int64)
    s = np.clip(11 - e, 0, 44)
    hi, lo = _two_product(x, _POW10[np.minimum(s, 22)])
    p10 = _POW10[np.maximum(s - 22, 0)]
    hi, lo2 = _two_product(hi, p10)
    lo = lo2 + lo * p10
    whole = np.floor(hi)
    d = (hi - whole - 0.5) + lo
    ok = ((11 - e == s) & (hi >= 1e11) & (hi < 1e12)
          & (np.abs(d) > 2.0 ** -40 * np.spacing(hi)))
    n = whole[ok].astype(np.int64) + (d[ok] > 0)
    e = e[ok]
    carry = n == 10 ** 12
    n[carry] = 10 ** 11
    e[carry] += 1
    keys[idx[ok]] = ((e + _E_BIAS) << _N_BITS) | n
    done[idx[ok]] = True

    rest = ~done
    keys[rest] = [((int(exponent) + _E_BIAS) << _N_BITS)
                  | int(mantissa.replace(".", ""))
                  for mantissa, exponent in (f"{u:.11e}".split("e")
                                             for u in v[rest].tolist())]
    return keys.reshape(shape)


def _key_values(keys) -> np.ndarray:
    """The floats of value keys, float(f"{N}e{j}") with j = e - 11.

    For j >= 0 (up to 22) one exact multiply rounds correctly.  For j < 0
    (down to -44) N / 10**-j is formed as a double-double q1 + q2 and
    rounded once; that rounding is kept only when q1 + q2 lies clear of
    the midpoint between two doubles by far more than its error.  The
    rest goes through Python's own parsing.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = (keys & _N_MASK).astype(float)
    j = (keys >> _N_BITS) - _E_BIAS - 11
    out = np.zeros(keys.shape)
    out[keys == _INF_KEY] = math.inf
    out[keys == _NAN_KEY] = math.nan
    rest = (keys != 0) & (keys < _INF_KEY)
    up = rest & (j >= 0) & (j <= 22)
    out[up] = n[up] * _POW10[j[up]]
    rest &= ~up

    idx = np.flatnonzero(rest & (j < 0) & (j >= -44))
    x, t = n[idx], -j[idx]
    q1 = x / _POW10[t]
    a, b = _two_product(q1, _POW10[t])
    q2 = (((x - a) - b) - q1 * _POW10_LO[t]) / _POW10[t]
    value = q1 + q2
    err = q2 - (value - q1)
    gap = np.where(err >= 0, np.nextafter(value, math.inf) - value,
                   value - np.nextafter(value, 0.0))
    ok = gap / 2 - np.abs(err) > 2.0 ** -40 * gap
    out[idx[ok]] = value[ok]
    rest[idx[ok]] = False

    out[rest] = [float(f"{a}e{b}") for a, b in
                 zip(n[rest].astype(np.int64).tolist(), j[rest].tolist())]
    return out


def _level_keys(matched, values, key_type) -> np.ndarray:
    """Level keys, as key_type, of matched counts and their values."""
    return ((np.asarray(matched).astype(key_type) << _K_SHIFT)
            | _decimal_keys(values).astype(key_type))


def _grouped(keys, counts):
    """Distinct keys in ascending order, each with its summed count."""
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[start], np.add.reduceat(counts, start)


def convolve_levels(p: np.ndarray, r_channels: int, max_levels: int):
    """The per-channel levels p[j, i] (matched when i == j) convolved
    r_channels times, every sum rounded to 12 significant digits.

    Returns (matched counts, values, multiplicities) by descending key:
    descending matched count, then descending value, NaN first and
    infinity next within a count.  The sums of a step are rounded in
    blocks of about 2**16; each block's keys and counts are appended to
    the step's running table, which _grouped then sums by key in
    ascending key order.  ValueError is raised as soon as that table
    passes max_levels.
    """
    m = len(p)
    base, base_counts = _grouped(
        _level_keys(np.eye(m, dtype=np.int64), p, np.int64).ravel(),
        np.ones(m * m, dtype=np.int64))
    base_k = base >> _K_SHIFT
    base_v = _key_values(base & _VALUE_MASK)
    rows = max(1, _BLOCK_SUMS // len(base))

    keys = np.zeros(1, dtype=np.int64)       # the level (0, 0.0) once
    counts = np.ones(1, dtype=np.int64)
    for step in range(1, r_channels + 1):
        # int64 while the matched count fits above the value bits and the
        # multiplicities, M^(2 step) in all, fit; exact Python ints past
        if step == 1 << (63 - _K_SHIFT):
            keys = keys.astype(object)
        if counts.dtype != object and m ** (2 * step) >= 1 << 63:
            counts = counts.astype(object)
            base_counts = base_counts.astype(object)
        acc_k = (keys >> _K_SHIFT).astype(np.int64)
        acc_v = _key_values(keys & _VALUE_MASK)
        table = keys[:0], counts[:0]
        for a in range(0, len(keys), rows):
            b = slice(a, a + rows)
            with np.errstate(over="ignore"):   # inf, as Python floats give
                sums = acc_v[b, None] + base_v
            block = (
                _level_keys(acc_k[b, None] + base_k, sums, keys.dtype).ravel(),
                (counts[b, None] * base_counts).ravel())
            table = _grouped(*map(np.concatenate, zip(table, block)))
            if len(table[0]) > max_levels:
                raise ValueError(
                    f"more than {max_levels} distinct levels at "
                    f"M = {m}, R = {r_channels}; the level table cannot be "
                    "enumerated")
        keys, counts = table

    keys, counts = keys[::-1], counts[::-1]
    return ((keys >> _K_SHIFT).astype(np.int64),
            _key_values(keys & _VALUE_MASK), counts)
