"""Two-axis real Fourier token mixing on numpy's FFT.

The mixing operation takes a real n x d matrix, zero-pads both axes to the
next power of two (np_ x dp), applies an unnormalized DFT first along the
hidden axis and then along the sequence axis, keeps the real part, and
crops back to n x d. The padded semantics are the contract; `np.fft` does
the transform in float64. Because the DFT matrix is symmetric, the adjoint
of the whole (real-linear) map is the map itself, which is what the tape
uses as the backward rule.

The input is real, so `np.fft.rfft2` computes only the hidden-axis bins
0..dp/2, about half the work of a complex transform. The cropped columns
past dp/2 are read back from Hermitian symmetry,
X[k, l] = conj(X[-k mod np_, dp - l]), whose real parts are equal.

Every transform adds to `COUNTER` the multiplies a radix-2 Cooley-Tukey
complex transform of the padded length performs (see `instrument`): the
model count, unchanged by the real-input shortcut.
"""

import numpy as np

from .instrument import COUNTER


def next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


def _radix2_mults(n: int, batch: int) -> int:
    """Real multiplies of `batch` radix-2 transforms of length n: log2(n)
    stages of n/2 butterflies, 4 real multiplies each."""
    return 2 * n * (n.bit_length() - 1) * batch


def mix_real2d(x: np.ndarray) -> np.ndarray:
    """Real part of the hidden-then-sequence DFT of x, zero-padded to powers
    of two along each axis and cropped back to the input shape."""
    n, d = x.shape
    np_, dp = next_pow2(n), next_pow2(d)
    COUNTER.add(_radix2_mults(dp, np_) + _radix2_mults(np_, dp))
    re = np.fft.rfft2(x, s=(np_, dp)).real
    h = re.shape[1]  # dp // 2 + 1, never more than d since dp < 2 * d
    out = np.empty((n, d))
    out[:, :h] = re[:n]
    # columns l >= h by Hermitian symmetry: Re X[k, l] = Re X[-k mod np_, dp - l]
    cols = slice(dp - h, dp - d, -1)
    out[:1, h:] = re[0, cols]  # row 0, none when n = 0
    out[1:, h:] = re[np_ - 1:np_ - n:-1, cols]
    return out
