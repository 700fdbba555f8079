"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the mathematical definitions
(naive O(n^2) DFT sums, central finite differences, scalar loss formulas)
and never calls the fast paths it is used to check.
"""

import math

import numpy as np


def naive_dft(re, im, inverse=False):
    """O(n^2) DFT from the definition, via real cos/sin matrix products."""
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    n = len(re)
    k = np.arange(n)
    theta = 2.0 * np.pi * np.outer(k, k) / n
    c, s = np.cos(theta), np.sin(theta)
    if inverse:
        out_re = (c @ re - s @ im) / n
        out_im = (c @ im + s @ re) / n
    else:
        out_re = c @ re + s @ im
        out_im = c @ im - s @ re
    return out_re, out_im


def naive_dft_matrix(n: int) -> np.ndarray:
    """Complex forward DFT matrix, for batched naive transforms."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def naive_mix(x: np.ndarray) -> np.ndarray:
    """Reference for the two-axis real mixing: pad to powers of two, DFT the
    hidden axis then the sequence axis with naive matrices, Re, crop."""
    n, d = x.shape
    np_ = 1
    while np_ < n:
        np_ *= 2
    dp = 1
    while dp < d:
        dp *= 2
    padded = np.zeros((np_, dp), dtype=np.complex128)
    padded[:n, :d] = x
    hidden = padded @ naive_dft_matrix(dp).T
    seq = naive_dft_matrix(np_) @ hidden
    return seq.real[:n, :d]


def scalar_gelu(x: float) -> float:
    """tanh-approximated gelu from the formula in the tensor module docstring."""
    return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def scalar_positional_encoding(pos: int, d: int) -> list[float]:
    """Sinusoidal encoding of one position from the formula, one float at a
    time: sin at even indices, cos at odd, angle pos / 10000^(2i/d)."""
    out = []
    for i in range(d // 2):
        angle = pos / 10000.0 ** (2.0 * i / d)
        out += [math.sin(angle), math.cos(angle)]
    return out


def linear_map_matrix(f, rows: int, cols: int) -> np.ndarray:
    """Materialize a linear map on rows x cols matrices as a dense matrix
    by probing it with basis inputs. Used to get adjoints independently."""
    m = np.zeros((rows * cols, rows * cols))
    for i in range(rows * cols):
        e = np.zeros(rows * cols)
        e[i] = 1.0
        m[:, i] = f(e.reshape(rows, cols)).ravel()
    return m


def fd_grad(f, arr: np.ndarray, h: float = 1e-5, coords=None) -> np.ndarray:
    """Central finite differences of scalar f with respect to arr, in place.

    coords limits the check to a subset of flat indices (full grid when None).
    """
    flat = arr.ravel()
    out = np.zeros_like(flat)
    idxs = range(flat.size) if coords is None else coords
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out.reshape(arr.shape)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def scalar_ner_loss(logits: np.ndarray, labels) -> float:
    """Token-wise cross entropy from the formula, one float at a time."""
    n, c = logits.shape
    total = 0.0
    for i in range(n):
        m = max(logits[i, k] for k in range(c))
        lse = m + math.log(sum(math.exp(logits[i, k] - m) for k in range(c)))
        for k in range(c):
            e = 1.0 if k == labels[i] else 0.0
            total += (logits[i, k] - lse) * e
    return -total / n


def scalar_re_loss(psi: np.ndarray, targets: np.ndarray) -> float:
    """Relation cross entropy from the formula; psi and targets are (t, H, L)
    and the log-softmax runs over the H axis for each fixed (key, head)."""
    t, nh, nl = psi.shape
    if nh == 0 or nl == 0:
        return 0.0
    total = 0.0
    for j in range(t):
        for p in range(nl):
            m = max(psi[j, h, p] for h in range(nh))
            lse = m + math.log(sum(math.exp(psi[j, h, p] - m) for h in range(nh)))
            for h in range(nh):
                if targets[j, h, p]:
                    total += psi[j, h, p] - lse
    return -total / (nh * nl)
