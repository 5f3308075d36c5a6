"""Real fields whose cube spectrum is real and even in every axis, held on
the non-negative octant of a padded grid (symmetric convolution; Martucci,
IEEE Trans. Signal Process. 42(5), 1994).

Such a field is even in every physical axis too, so its samples on the
octant {0..P/2}^3 of a size-P grid fix it, and the size-P DFT restricted to
even data is a type-I DCT of length P/2+1.  It runs as pruned products with
cosine matrices cached per P: each pass contracts an axis of K+1
non-negative frequencies.  renorm forms every resonance sum this way, from
the bracket on {0..K}^3, never on the (2K+1)^3 cube.
"""

import math

import numpy as np

from .fourier import fast_len


_octant_matrices = {}


def _cosines(P):
    """The cosine matrices of a size-P grid, built once per P, with M = P/2+1
    and each phase reduced mod P = 2(M-1): D[j, k] = c_k cos(pi jk/(M-1)) with
    c_0 = 1, c_k = 2 (samples from the non-negative frequencies), and
    S[k, j] = w_j cos(pi jk/(M-1)) / P with endpoint weights 1, 2, .., 2, 1
    (the frequencies from the octant samples).  They hold every frequency up
    to P/2; an octant at K takes the first K+1 columns of D and rows of S."""
    if P not in _octant_matrices:
        M = P // 2 + 1
        cos = np.cos(2 * np.pi * (np.outer(np.arange(M), np.arange(M)) % P) / P)
        w = np.full(M, 2.0 / P)
        w[[0, -1]] = 1.0 / P
        D = cos * np.r_[1.0, np.full(M - 1, 2.0)]
        _octant_matrices[P] = (D, np.ascontiguousarray(cos.T * w))
    return _octant_matrices[P]


class EvenOctant:
    """The even fields of spectral block {0..K}^3 on the octant of a size-P
    grid (P even).  Both directions run as three products with the cosine
    matrices of _cosines, one per axis, through two pass arrays: the leading
    entries of `work`, two flat arrays (a caller's storage, reused across
    octants), or arrays of their own.  A stack of fields goes through as one:
    each of its products is the stack of the one-field products.
    """

    def __init__(self, K, P, work=None):
        if P % 2 or P < 2 * K + 1:
            raise ValueError(f"octant transforms need an even pad >= {2 * K + 1}, got {P}")
        self.K, self.P, self.work = K, P, work
        D, S = _cosines(P)
        self.D, self.S = D[:, : K + 1], S[: K + 1]

    def passes(self, count=1):
        """The two flat pass arrays of a stack of `count` fields."""
        n, M = self.K + 1, self.P // 2 + 1
        sizes = count * n * n * M, count * n * M * M
        # samples and block (which runs the passes in reverse) share them
        if self.work is None:
            return tuple(map(np.empty, sizes))
        return tuple(a[:size] for a, size in zip(self.work, sizes))

    def samples(self, spec, out=None):
        """Octant samples of the fields whose even, real cube spectra have the
        non-negative-frequency blocks spec[..., :K+1, :K+1, :K+1] (cubes or
        just those blocks, one or a stack), written into `out` (C-contiguous)
        when given."""
        n, M, D = self.K + 1, self.P // 2 + 1, self.D
        spec = spec[..., :n, :n, :n]
        lead = spec.shape[:-3]
        c = math.prod(lead)
        x1, x2 = self.passes(c)
        # axis -1, then -2, then -3: each pass contracts K+1 nonzeros
        np.matmul(spec.reshape(c, n * n, n), D.T, out=x1.reshape(c, n * n, M))
        np.matmul(D, x1.reshape(c * n, n, M), out=x2.reshape(c * n, M, M))
        out = np.empty(lead + (M,) * 3) if out is None else out
        np.matmul(D, x2.reshape(c, n, M * M), out=out.reshape(c, M, M * M))
        return out

    def block(self, phys, out=None):
        """Block {0..K}^3 of the cube spectrum of each even field from its
        octant samples (one or a stack), written into `out` (C-contiguous)
        when given."""
        n, M, S = self.K + 1, self.P // 2 + 1, self.S
        lead = phys.shape[:-3]
        c = math.prod(lead)
        x2, x1 = self.passes(c)
        np.matmul(S, phys.reshape(c, M, M * M), out=x1.reshape(c, n, M * M))
        np.matmul(S, x1.reshape(c * n, M, M), out=x2.reshape(c * n, n, M))
        out = np.empty(lead + (n,) * 3) if out is None else out
        np.matmul(x2.reshape(c, n * n, M), S.T, out=out.reshape(c, n * n, n))
        return out

    def power_block(self, y, N, yN, out=None):
        """Block {0..K}^3 of the spectrum of y^N, the power formed in yN."""
        np.copyto(yN, y)
        for _ in range(N - 1):
            yN *= y
        return self.block(yN, out)


def _even_pad(need):
    """Smallest even 5-smooth length >= need (even for the octant)."""
    return 2 * fast_len(-(-need // 2), (2, 3, 5))
