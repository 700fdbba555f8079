"""Global multiply counter used by the benchmark harness.

Counts scalar multiplications performed by the two expensive primitive
families: matrix products (m*k*p multiply-accumulates) and FFT butterflies
(4 real multiplies per complex twiddle product). Elementwise work is not
counted; complexity claims are about these two families.

The FFT figure is the radix-2 model count, 2 * n * log2(n) real multiplies
per length-n complex transform of the power-of-two padded length, not the
work np.fft happens to do. `fourier.mix_real2d` runs a real-input `rfft2`,
which skips about half of that work, and still adds the full complex count.
It depends on the shapes alone, so multiplies per token stay comparable
across commits and FFT back ends.
"""


class MulCounter:
    def __init__(self):
        self.total = 0

    def add(self, n: int):
        self.total += int(n)

COUNTER = MulCounter()
