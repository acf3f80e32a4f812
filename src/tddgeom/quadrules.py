"""Gauss-Legendre rules, the nested Gauss-Kronrod pairs built on them, and their refinement.

Every rule is built with numpy alone, on first use, and cached per
order: the Gauss nodes by Newton's method on the Legendre recurrence
from their asymptotic positions, the Jacobi-Kronrod matrix by Laurie's
algorithm, and the Kronrod-only nodes by Newton's method on its
characteristic polynomial divided by P_n.  No dense eigensolver runs:
on a 2-core x86_64 host with OPENBLAS_NUM_THREADS=2, numpy's eigh of a
65 x 65 matrix took a median 56 ms, against 0.3 ms single-threaded,
and the recurrences give every node to a few ulp.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import IntegrationError


def _advance(x, beta, state, lo, hi):
    """Step the orthonormal Legendre recurrence
    beta[k+1] q_{k+1} = x q_k - beta[k] q_{k-1} at the points x from
    index lo to hi; state is (q_{lo-1}, q_lo) and their derivatives, and
    the same tuple at hi is returned.  beta[0] is 0."""
    q0, q1, d0, d1 = state
    for k in range(lo, hi):
        q0, q1, d0, d1 = (
            q1, (x * q1 - beta[k] * q0) / beta[k + 1],
            d1, (q1 + x * d1 - beta[k] * d0) / beta[k + 1],
        )
    return q0, q1, d0, d1


def _newton(x, step):
    """Newton's method from the starting points x; step(x) returns the
    correction.  Quadratic convergence makes the step after a 1e-10
    correction negligible."""
    for _ in range(50):
        dx = step(x)
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-10:
            return x
    raise ArithmeticError("quadrature nodes did not converge")


def _legendre_beta(m):
    """beta[0..m] of the orthonormal Legendre recurrence, beta[0] = 0."""
    k = np.arange(m + 1.0)
    return k / np.sqrt(np.maximum(4.0 * k * k - 1.0, 1.0))


@lru_cache(maxsize=64)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on (-1, 1), by Newton's method on
    the Legendre recurrence from the asymptotic nodes."""
    beta = _legendre_beta(n)
    start = (0.0, 1.0, 0.0, 0.0)

    def step(x):
        _, q, _, d = _advance(x, beta, start, 0, n)
        return q / d

    x = _newton(np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)), step)
    # q_n = sqrt(2n + 1) P_n, and w = 2 / ((1 - x^2) P_n'^2)
    _, _, _, d = _advance(x, beta, start, 0, n)
    return x, (4 * n + 2) / ((1.0 - x * x) * d * d)


def _kronrod_beta(n):
    """beta[0..2n] of the Jacobi-Kronrod matrix of order 2n + 1 for the
    Legendre weight, by Laurie's algorithm ("Calculation of Gauss-Kronrod
    quadrature rules", Math. Comp. 66, 1997).  The weight is symmetric,
    so the diagonal vanishes and only the off-diagonal update remains.
    The algorithm is homogeneous in its work vectors s and t, which are
    rescaled at each step so that large orders neither overflow nor
    underflow."""
    m = (3 * n + 1) // 2 + 1
    b = np.zeros(2 * n + 1)
    b[:m] = _legendre_beta(m - 1) ** 2
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for i in range(n - 1):
        k = np.arange((i + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[i - k] * s[k + 1])
        s, t = t, s
        scale = np.max(np.abs(t)) or 1.0
        s /= scale
        t /= scale
    s[1:] = s[:-1].copy()
    for i in range(n - 1, 2 * n - 2):
        k = np.arange(i + 1 - n, (i - 1) // 2 + 1)
        j = n - 1 - i + k
        s[j + 1] = np.cumsum(b[i - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if i % 2:
            b[(i + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s[j[-1] + 2:] = 0.0  # never read again, and free to underflow
        s, t = t, s
        scale = np.max(np.abs(t)) or 1.0
        s /= scale
        t /= scale
    b[0] = 0.0
    return np.sqrt(b)


@lru_cache(maxsize=64)
def gauss_kronrod(n):
    """The nested pair G(n) in K(2n+1) on (-1, 1): the 2n + 1 ascending
    Kronrod nodes and a (2, 2n + 1) weight array whose rows are the
    Kronrod weights and the Gauss weights (zero at the n + 1 Kronrod-only
    nodes), so that one evaluation on the nodes gives both estimates.

    The Kronrod-only nodes are the zeros of the Stieltjes polynomial
    E_{n+1} = p_{2n+1} / P_n, where p_{2n+1} is the characteristic
    polynomial of the Jacobi-Kronrod matrix; they interlace the Gauss
    nodes, so Newton's method on E_{n+1} starts from the angle midpoints
    between them.  The Kronrod weights follow from the
    Christoffel-Darboux identity, w = 2 / (p' q_{2n}) with p and q in
    the orthonormal normalisation."""
    xg, wg = gauss_legendre(n)
    beta = _kronrod_beta(n)
    start = (0.0, 1.0, 0.0, 0.0)

    def sweep(x):
        """q_n, q_n', q_{2n}, and p_{2n+1} up to a constant, with p'."""
        at_n = _advance(x, beta, start, 0, n)
        q0, q1, d0, d1 = _advance(x, beta, at_n, n, 2 * n)
        return at_n[1], at_n[3], q1, x * q1 - beta[2 * n] * q0, q1 + x * d1 - beta[2 * n] * d0

    def step(x):
        qn, dn, _, p, dp = sweep(x)
        with np.errstate(divide="ignore"):  # p = 0 at a root: the step is 0
            return 1.0 / (dp / p - dn / qn)

    edges = np.concatenate(([math.pi], np.arccos(xg), [0.0]))
    xk = _newton(np.cos(0.5 * (edges[1:] + edges[:-1])), step)
    nodes = np.concatenate((xg, xk))
    _, _, q, _, dp = sweep(nodes)
    weights = np.stack((2.0 / (dp * q), np.concatenate((wg, np.zeros(n + 1)))))
    order = np.argsort(nodes)
    # take() keeps each row contiguous (weights[:, order] would not), as
    # the einsum reductions of the PPP kernel want
    return nodes[order], weights.take(order, axis=1)


@lru_cache(maxsize=64)
def gauss_kronrod_unit(n):
    """The pair of :func:`gauss_kronrod` mapped onto (0, 1); each row of
    weights sums to 1."""
    nodes, weights = gauss_kronrod(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def refine(estimate, size, bound, max_refinements, failure):
    """Refine each of size items on its own: estimate(level, todo) gives
    the Kronrod and Gauss values K and G of the items at the indices
    todo, each coarse order n taken as n << level.  Items whose |K - G|
    exceeds bound(K), or is NaN, go on to the next level, at most
    max_refinements times.  Returns every item's K from its last level.
    If an item still fails after the last level, the first one, i,
    raises IntegrationError(failure(i)) carrying its K and |K - G|, in
    the units of its own integral."""
    values = np.empty(size)
    todo = np.arange(size)
    for level in range(max_refinements + 1):
        fine, coarse = estimate(level, todo)
        disc = np.abs(fine - coarse)
        values[todo] = fine
        keep = ~(disc <= bound(fine))
        todo, disc = todo[keep], disc[keep]
        if todo.size == 0:
            return values
    raise IntegrationError(failure(todo[0]), achieved=float(values[todo[0]]), discrepancy=float(disc[0]))
