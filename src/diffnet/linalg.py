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
    "node_product",
    "spectral_radius",
]


def crandn(gen: np.random.Generator, shape=(), *, out: np.ndarray | None = None) -> np.ndarray:
    """Draw circular complex standard normals (E|x|^2 = 1), into a C-contiguous ``out`` if given.

    Each entry takes its real part, then its imaginary part, from the stream, in C order,
    so two draws in a row give the same numbers as one draw of their concatenation.
    """
    out = np.empty(shape, dtype=complex) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("crandn fills only a C-contiguous out")
    parts = out.reshape(-1).view(float)
    gen.standard_normal(out=parts)
    parts *= 1.0 / np.sqrt(2.0)
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


def node_product(a_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_t @ x over x's node axis (its second to last); a complex x through its real view,
    so its two parts take one real product, one dgemm call per matrix of a stack."""
    if not np.iscomplexobj(x):
        return np.matmul(a_t, x)
    return np.matmul(a_t, np.ascontiguousarray(x).view(float)).view(complex)


def spectral_radius(x: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(x)))))
