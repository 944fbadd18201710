"""Exponentials of truncated univariate power series.

A series is stored as its coefficients ``c[0] + c[1]*x + ... + c[N]*x**N``,
truncated at order ``N``.  The default order is 8, which is enough to
carry the sixth-order coefficient of an even series exactly through the
exponential.  :func:`exp_coeffs_batch` runs the standard recurrence for
``y = exp(s)``::

    y' = s' * y   =>   n*y[n] = sum_{m=1..n} m*s[m]*y[n-m]

over arrays of coefficient vectors; the series route of the expansion
coefficients builds its theta-product rows with it.
"""

from __future__ import annotations

import numpy as np

#: Default truncation order; order 6 coefficients stay exact under
#: truncated products and exponentials at this setting.
TRUNCATION_ORDER = 8


def exp_coeffs_batch(s: np.ndarray) -> np.ndarray:
    """exp of a batch of coefficient vectors, truncated at their order.

    ``s`` has shape ``(..., N+1)``; the result has the same shape.  The
    constant term may be nonzero; it is absorbed as an overall factor
    ``exp(s[..., 0])``.
    """
    s = np.asarray(s, dtype=float)
    n_ord = s.shape[-1] - 1
    out = np.zeros_like(s)
    out[..., 0] = np.exp(s[..., 0])
    for n in range(1, n_ord + 1):
        acc = np.zeros(s.shape[:-1])
        for m in range(1, n + 1):
            acc = acc + m * s[..., m] * out[..., n - m]
        out[..., n] = acc / n
    return out
