"""Small linear-algebra helpers shared across the package.

Complex vectors use the circular (proper) Gaussian convention: unit-variance
scalars have independent real and imaginary parts with variance 1/2 each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "crandn",
    "psd_factor",
    "db10",
    "hermitize",
    "spectral_radius",
]


_PIECE = 1 << 17  # the most normals crandn draws at once, so its temporary stays at 1 MiB


def crandn(gen: np.random.Generator, shape=(), *, out: np.ndarray | None = None) -> np.ndarray:
    """Draw circular complex standard normals (E|x|^2 = 1), into ``out`` (any view) if given.

    All real parts, then all imaginary parts, in C order; more than ``_PIECE``
    are drawn in pieces of the stream, which give the same numbers as one draw.
    """
    out = np.empty(shape, dtype=complex) if out is None else out
    flat = out.reshape(-1) if out.flags.c_contiguous else np.empty(out.size, dtype=complex)
    parts, n = flat.view(float).reshape(-1, 2).T, flat.size  # real parts, imaginary parts
    for piece in ([parts] if 2 * n <= _PIECE else
                  [part[lo:lo + _PIECE] for part in parts for lo in range(0, n, _PIECE)]):
        np.multiply(gen.standard_normal(piece.shape), 1.0 / np.sqrt(2.0), out=piece)
    if flat.base is None:  # out is not contiguous, so the draws went to a copy
        out[...] = flat.reshape(out.shape)
    return out


def psd_factor(r: np.ndarray) -> np.ndarray:
    """Factor L with L @ L^H = r, for a PSD matrix or each one of a (..., M, M) stack.

    Eigendecomposition based, so rank-deficient covariances are accepted;
    tiny negative eigenvalues from rounding are clipped to zero.
    """
    r = np.asarray(r, dtype=complex)
    w, u = np.linalg.eigh(hermitize(r))
    w = np.clip(w, 0.0, None)
    return u * np.sqrt(w)[..., None, :]


def db10(x) -> np.ndarray:
    """Power quantity to decibels; zeros map to -inf without warnings."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def hermitize(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def spectral_radius(x: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(x)))))
