"""Generator of the stored Caratheodory-Fejer table of exp(-x).

    PYTHONPATH=src python tests/cf_table.py

rebuilds every candidate set (K = 1 .. CF_MAX_K, one per scale of
``rational._CF_SCL_GRID``) and writes them to ``rational.CF_TABLE_PATH``,
which ``rational._exp_neg`` reads.  The construction is that of Trefethen,
Weideman & Schmelzer (BIT 2006): the transplanted exponential's Chebyshev
coefficients decay fast enough that a 75 x 75 Hankel matrix resolves every
order up to CF_MAX_K.  Tests compare the stored table with a fresh one.
"""

import numpy as np
from scipy.linalg import hankel

from slqcert.rational import _CF_SCL_GRID, CF_MAX_K, CF_TABLE_PATH

_CF_HANKEL = 75


def cf_candidates(n):
    """One (poles, coeffs) pair per scale for exp(-x) of order n = 2K: the K
    upper-half-plane poles with their coefficients doubled."""
    nf = 1024
    w = np.exp(2j * np.pi * np.arange(nf) / nf)
    t = w.real
    out = []
    for scl in _CF_SCL_GRID:
        F = np.exp(scl * (t - 1) / (t + 1 + 1e-16))
        c = np.fft.fft(F).real / nf
        H = hankel(c[1 : _CF_HANKEL + 1])
        U, S, Vh = np.linalg.svd(H)
        u = U[::-1, n]
        v = Vh[n, :]
        pad = np.zeros(nf - len(u))
        blaschke = np.fft.fft(np.concatenate([u, pad])) / np.fft.fft(np.concatenate([v, pad]))
        f_anal = np.polyval(c[_CF_HANKEL::-1], w)
        rt = f_anal - S[n] * w**n * blaschke
        roots = np.roots(v)
        qk = roots[np.abs(roots) > 1.0]
        if len(qk) != n:
            raise RuntimeError(f"CF construction at scale {scl} has {len(qk)} poles, not {n}")
        qc = np.poly(qk)
        numer = (np.fft.fft(rt * np.polyval(qc, w)).real / nf)[n::-1]
        ck = np.empty(n, dtype=complex)
        for j in range(n):
            others = np.poly(qk[np.arange(n) != j])
            ck[j] = np.polyval(numer, qk[j]) / np.polyval(others, qk[j])
        zk = scl * (qk - 1) ** 2 / (qk + 1) ** 2
        ck = 4 * ck * zk / (qk**2 - 1)
        # poles/coefficients of r ~ e^x on the negative axis; flip for exp(-x)
        poles = -zk
        coeffs = -ck
        sel = poles.imag > 0
        if sel.sum() != n // 2:
            raise RuntimeError(f"CF construction at scale {scl} is not conjugate-symmetric")
        out.append((poles[sel], 2 * coeffs[sel]))
    return out


def cf_table():
    """The (2, ...) complex table: row 0 the poles, row 1 the coefficients,
    ordered by K, then by scale, then by pole."""
    sets = [pair for K in range(1, CF_MAX_K + 1) for pair in cf_candidates(2 * K)]
    return np.array([np.concatenate([poles for poles, _ in sets]),
                     np.concatenate([coeffs for _, coeffs in sets])])


if __name__ == "__main__":
    np.save(CF_TABLE_PATH, cf_table())
    print(f"wrote {CF_TABLE_PATH}")
