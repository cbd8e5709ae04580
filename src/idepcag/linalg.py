"""Dense complex matrix kernel: inverses, spectra, expm, principal logm.

Matrices are plain ``numpy.ndarray``s (real or complex, square).  Every
inverse and solve is numpy's LAPACK ``gesv`` (LU with partial pivoting)
under one pivot rule; the eigensolver is numpy's LAPACK too, and the
exponential is a stacked Taylor kernel shared with the transition layer.
The branch, pivot and spectral-order policies that the Floquet normal form
relies on live here.

scipy is not imported with the module: only the logarithm of a defective
matrix, ``scipy.linalg.logm``, needs it, and ``_logm`` imports it there at
first call.  So the package's default paths load numpy's OpenBLAS alone.

Eigenvalues are always reported sorted by descending modulus, then
ascending argument, so downstream reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SingularMatrixError",
    "ConvergenceError",
    "RealificationError",
    "Spectrum",
    "norm1",
    "inv",
    "solve",
    "eig",
    "expm",
    "logm_principal",
    "logm_real_doubled",
]


class NumericalError(RuntimeError):
    """A numeric kernel or operator assembly failed its contract."""


class SingularMatrixError(NumericalError):
    """Matrix singular to working tolerance."""


class ConvergenceError(NumericalError):
    """A kernel found no answer: no convergence, or no principal branch."""


class RealificationError(NumericalError):
    """A logarithm expected to be real carries a non-negligible imaginary part."""


def norm1(M) -> float:
    """Matrix 1-norm (max absolute column sum)."""
    return float(np.abs(np.atleast_2d(M)).sum(axis=0).max())


def _square(M):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


_PIVOT_RTOL = 1e-14


def _min_pivot(M):
    """Smallest ``|u_kk|`` of the LU of ``M`` by partial pivoting, the pivot
    row chosen as LAPACK's ``i?amax`` (inside ``getrf``) chooses it: the
    first row of largest ``|Re| + |Im|`` in the column."""
    n = len(M)
    a = M.tolist()
    smallest = math.inf
    for k in range(n):
        p, best = k, -1.0
        for i in range(k, n):
            size = abs(a[i][k].real) + abs(a[i][k].imag)
            if size > best:
                p, best = i, size
        a[k], a[p] = a[p], a[k]
        top = a[k]
        smallest = min(smallest, abs(top[k]))
        if not top[k]:
            break
        r = 1.0 / top[k]
        for row in a[k + 1:]:
            f = row[k] * r
            for j in range(k + 1, n):
                row[j] -= f * top[j]
    return smallest


def _gesv(M, B):
    """``np.linalg.solve(M, B)``, or ``np.linalg.inv(M)`` when ``B`` is
    ``None``, under the pivot rule."""
    M = _square(M)
    smallest = _min_pivot(M)
    if smallest <= _PIVOT_RTOL * max(norm1(M), 1e-300):
        raise SingularMatrixError(f"matrix singular to tolerance (min pivot {smallest:.3e})")
    try:
        return np.linalg.inv(M) if B is None else np.linalg.solve(M, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix singular to working precision") from exc


def solve(M, B):
    """Solve ``M @ X = B``: ``np.linalg.solve``, LAPACK ``gesv`` (LU with
    partial pivoting) in the common type of ``M`` and ``B``.

    numpy does not expose the LU factors, so the pivot rule reads them from
    ``_min_pivot``, a second elimination in the pivot order of ``getrf``.

    Raises
    ------
    SingularMatrixError
        If some pivot is at most ``1e-14 * norm1(M)``.
    """
    return _gesv(M, B)


def inv(M):
    """Inverse: ``np.linalg.inv``, ``gesv`` of ``M`` and ``I``, under the
    pivot rule of ``solve``."""
    return _gesv(M, None)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (with multiplicity) plus right eigenvectors.

    ``condition_estimate`` is the 2-norm condition number of the eigenvector
    matrix; very large or infinite values signal a (numerically) defective
    matrix whose eigendecomposition should not be trusted.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    condition_estimate: float


def eig(M) -> Spectrum:
    """Full spectrum of a square matrix.

    Eigenvalues are sorted by (descending modulus, ascending argument);
    eigenvectors are unit columns aligned with the eigenvalue order.
    """
    M = _square(M)
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    values = values.astype(complex)
    order = np.lexsort((np.angle(values), -np.abs(values)))
    values, vectors = values[order], vectors[:, order]
    cond = float(np.linalg.cond(vectors))
    return Spectrum(values, vectors, cond if np.isfinite(cond) else np.inf)


def _require_invertible(M, spec):
    """Raise ``SingularMatrixError`` when ``M``, of spectrum ``spec``, has an
    eigenvalue of modulus at most ``1e-14 max(1, norm1(M))``.  ``M @ M`` is
    singular exactly when ``M`` is, so the rule is read on ``M`` alone."""
    smallest = float(np.min(np.abs(spec.eigenvalues)))
    if smallest <= 1e-14 * max(1.0, norm1(M)):
        raise SingularMatrixError(
            f"singular matrix: smallest eigenvalue modulus {smallest:.3e}"
        )


# Taylor coefficients 1/k!, k = 0..15, in Paterson-Stockmeyer blocks:
# row j holds the coefficients of X^0..X^3 that multiply (X^4)^j.
_TAYLOR_PS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])


def _gemm(a, b):
    """``a @ b`` of 2-D operands through BLAS gemm, as in a larger product:
    numpy sends one row or one column to gemv, which rounds differently, so
    such an operand is doubled and the result cut back."""
    if a.shape[0] == 1 or b.shape[1] == 1:
        return (np.vstack((a, a)) @ np.hstack((b, b)))[: a.shape[0], : b.shape[1]]
    return a @ b


def _expm_many(M):
    """``exp`` of every matrix of the stack ``M`` (shape ``(..., m, m)``,
    real or complex).

    Degree-15 Taylor polynomial (Paterson-Stockmeyer, six products) of
    ``M / 2^s``, with ``s`` per matrix the least that brings its Frobenius
    norm to at most 1/2 (truncation error about 1e-18 relative), then ``s``
    squarings.  A zero matrix gives exactly ``I``.  Each matrix gets the
    same bits in any stack.  Overflow is not trapped: a result too large to
    represent comes out non-finite.
    """
    shape = M.shape
    m = shape[-1]
    sq = np.einsum("...ij,...ij->...", M, M.conj() if np.iscomplexobj(M) else M).real
    # frexp: |M|_F^2 < 2^e, so a scale of 2^-s with s >= e / 2 + 1 leaves at
    # most 1/2.
    s = (np.frexp(sq)[1] + 3) // 2
    if not np.isfinite(sq).all():
        # |M|_F^2 overflowed: |M|_F < m 2^e for the largest entry below 2^e.
        e = np.frexp(np.abs(M).max(axis=(-2, -1)))[1]
        s = np.where(np.isfinite(sq), s, e + (m - 1).bit_length() + 1)
    s = np.maximum(s, 0)
    powers = np.empty((4,) + shape, dtype=np.result_type(M, float))
    powers[0] = np.eye(m)
    X = np.multiply(M, np.ldexp(1.0, -s)[..., None, None], out=powers[1])
    np.matmul(X, X, out=powers[2])
    np.matmul(powers[2], X, out=powers[3])
    X4 = powers[2] @ powers[2]
    blocks = _gemm(_TAYLOR_PS, powers.reshape(4, -1)).reshape(powers.shape)
    E = blocks[3]
    for block in blocks[2::-1]:
        E = E @ X4 + block
    for level in range(int(s.max(initial=0))):
        E = np.where((s > level)[..., None, None], E @ E, E)
    return E


def expm(M):
    """Matrix exponential: ``_expm_many`` of one matrix."""
    return _expm_many(_square(M))


_EIG_COND_SWITCH = 1e8
# Eigenvalues of a defective matrix are accurate to about sqrt(eps) relative,
# so an eigenvalue this close to the negative real axis may lie on it.
_CUT_RTOL = 1e-6
# A squared eigenvalue rho^2 this many eps cond(V) norm1(M) |rho| from the
# negative real axis may lie on it (see _logm): 2 for the square, 4 to spare.
_CUT_ROUNDOFF = 8.0
_REALIFY_ATOL = 1e-9
# _logm squares a matrix of 1-norm below 2^_SQUARE_EXP: every entry and
# partial sum of the square, and every rho^2, is at most that norm squared,
# below 2^1022, a quarter of the float range.
_SQUARE_EXP = 511


def _logm(M, spec, square=False):
    """Principal log of ``M``, or when ``square`` the real log of ``M @ M``,
    from the spectrum ``spec`` of ``M``: ``V diag(Log rho_j) V^-1`` (``rho_j``
    squared when ``square``) while the eigenvectors are well conditioned
    (condition number at most 1e8), which stays exact when ``M`` has both
    ``rho`` and ``-rho``; otherwise (defective or nearly defective ``M``)
    ``scipy.linalg.logm``, the inverse scaling-and-squaring algorithm of
    Al-Mohy & Higham (2012).

    Each ``rho_j`` on the closed negative real axis takes ``Log`` ``+i pi``
    on that axis.  When ``square``, a ``rho_j^2`` counts as on the axis
    while its imaginary part is within ``_CUT_ROUNDOFF eps cond(V)
    norm1(M) |rho_j|``: Bauer-Fike bounds the error of an eigenvalue by
    ``cond(V)`` times that of ``M``, about ``eps norm1(M)``, and squaring
    scales it by ``2 |rho_j|``.  So a pair of multipliers within roundoff of
    the imaginary axis has no real log, whichever side roundoff put them on.

    When ``square``, ``M`` and ``rho_j`` are first divided by ``2^k``, the
    least ``k >= 0`` that brings ``norm1(M)`` below ``2^_SQUARE_EXP``, and
    ``2 k ln 2 I`` is added to the log of the square: so ``M @ M`` and
    ``rho_j^2`` stay finite while ``M`` is, and at ``k = 0`` no bit moves.
    """
    _require_invertible(M, spec)
    k, lam = 0, spec.eigenvalues
    if square:
        k = max(0, math.frexp(norm1(M))[1] - _SQUARE_EXP)
        M, lam = M / 2.0**k, lam / 2.0**k
    rho = lam * lam if square else lam
    if spec.condition_estimate <= _EIG_COND_SWITCH:
        V = spec.eigenvectors
        on_cut = rho.imag == 0.0
        if square:
            roundoff = (_CUT_ROUNDOFF * np.finfo(float).eps * spec.condition_estimate
                        * norm1(M) * np.abs(lam))
            on_cut |= (rho.real < 0) & (np.abs(rho.imag) <= roundoff)
        # +0.0j on the axis, so Log(-1) is +i pi, not -i pi
        L = V @ np.diag(np.log(np.where(on_cut, rho.real + 0j, rho))) @ inv(V)
    elif np.any((rho.real < 0) & (np.abs(rho.imag) <= _CUT_RTOL * np.abs(rho))):
        raise ConvergenceError(
            "no principal logarithm: defective matrix with an eigenvalue on "
            "the closed negative real axis"
        )
    else:
        import scipy.linalg

        L = scipy.linalg.logm(M @ M if square else M)
    if not square:
        return L
    if k:
        L = L + 2.0 * k * math.log(2.0) * np.eye(len(M))
    residue = float(np.abs(L.imag).max()) if np.iscomplexobj(L) else 0.0
    if residue > _REALIFY_ATOL * max(1.0, norm1(L)):
        raise RealificationError(
            f"principal log of the squared matrix is not real "
            f"(imaginary residue {residue:.3e}); the spectrum of the input "
            f"pairs on the imaginary axis"
        )
    return np.ascontiguousarray(L.real)


def logm_principal(M):
    """Principal matrix logarithm: ``expm(L) = M`` with eigenvalue
    imaginary parts in ``(-pi, pi]``; ``_logm`` of ``M`` and ``eig(M)``.

    Raises
    ------
    SingularMatrixError
        If ``M`` is singular to tolerance (the log does not exist).
    ConvergenceError
        If ``M`` is (nearly) defective with an eigenvalue on the closed
        negative real axis, where no principal log exists.
    """
    M = _square(M)
    return _logm(M, eig(M))


def logm_real_doubled(M):
    """Real logarithm of the square: real ``L`` with ``expm(L) = M @ M``.

    The principal log of ``M^2`` from the spectrum of ``M``, with an
    imaginary residue below 1e-9 stripped; a larger residue (which occurs
    when ``M`` has an eigenvalue pair on the imaginary axis, to roundoff,
    so ``M^2`` has negative real eigenvalues) raises ``RealificationError``.
    """
    M = _square(M)
    if np.iscomplexobj(M) and np.abs(M.imag).max() > 0.0:
        raise ValueError("logm_real_doubled expects a real matrix")
    M = M.real.astype(float)
    return _logm(M, eig(M), square=True)
