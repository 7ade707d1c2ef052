"""Independent oracles used only by the tests.

Signatures come from Seifert matrices via numeric eigenvalues; Alexander
polynomials come from sympy polynomial division.  Neither path shares code
with the package implementations they check.  PartitionEvaluator is the
reference for the one-summand V_0 lower bound of connected sums.
"""

from fractions import Fraction

import numpy as np
import sympy

from defslice.hf_invariants import Evaluator
from defslice.knotexpr import Sum, mirror
from defslice.laurent import LaurentPoly, symmetric_normalized


def _upper_bidiagonal(n):
    m = np.eye(n, dtype=int)
    for i in range(n - 1):
        m[i][i + 1] = -1
    return m


def seifert_matrix_torus(p, q):
    """Seifert matrix of T(p,q) from the fiber-surface tensor construction.

    Anchored independently: its det-polynomial equals the Alexander
    polynomial and its omega = -1 signature matches the classical values
    (checked in the tests that use it).
    """
    return -np.kron(_upper_bidiagonal(p - 1), _upper_bidiagonal(q - 1))


def numeric_signature(V, x, tol=1e-9):
    """Signature of (1-w)V + (1-conj(w))V^T at w = e^(2*pi*i*x), numerically."""
    w = np.exp(2j * np.pi * float(x))
    M = (1 - w) * V + (1 - np.conj(w)) * V.T
    eig = np.linalg.eigvalsh(M)
    if min(abs(eig)) <= tol:
        raise ValueError(f"angle {x} too close to a jump (eigenvalue within {tol})")
    return int(np.sum(np.sign(eig)))


def alexander_from_seifert(V):
    """Symmetric-normalized Alexander polynomial det(V - t V^T), via sympy."""
    t = sympy.symbols("t")
    M = sympy.Matrix(V.tolist()) - t * sympy.Matrix(V.T.tolist())
    poly = sympy.Poly(sympy.expand(M.det()), t)
    coeffs = list(reversed(poly.all_coeffs()))
    return symmetric_normalized(LaurentPoly(enumerate(int(c) for c in coeffs)))


def alexander_torus_division(p, q):
    """(t^(pq)-1)(t-1)/((t^p-1)(t^q-1)) via sympy exact division."""
    t = sympy.symbols("t")
    num = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
    den = sympy.Poly((t**p - 1) * (t**q - 1), t)
    quo, rem = sympy.div(num, den, domain="QQ")
    assert rem == 0
    coeffs = list(reversed(quo.all_coeffs()))
    return symmetric_normalized(LaurentPoly(enumerate(int(c) for c in coeffs)))


def random_regular_angle(rng, fn, max_den=997):
    """Random rational in (0, 1/2) that is not a jump point of fn."""
    jump_xs = {x for x, _ in fn.jumps}
    while True:
        den = rng.randrange(5, max_den)
        num = rng.randrange(1, den // 2)
        x = Fraction(num, den)
        if 0 < x < Fraction(1, 2) and x not in jump_xs:
            return x


class PartitionEvaluator(Evaluator):
    """Evaluator whose V_0 lower bound tries every two-block partition.

    V_0(A # B) >= V_0(A) - V_0(B*) over every split of the summands into
    nonempty A and B, with V_0(A) bounded below by the same search: 3^r work
    over r summands.  Evaluator._sum_lower_v0 proves that a single summand
    in A attains this optimum; this search is the reference it is checked
    against.
    """

    def _sum_lower_v0(self, parts):
        r = len(parts)
        best = 0
        for mask in range(1, (1 << r) - 1):
            a = tuple(p for i, p in enumerate(parts) if mask >> i & 1)
            b = tuple(mirror(p) for i, p in enumerate(parts) if not mask >> i & 1)
            lo_a = self._vseq_of(a[0] if len(a) == 1 else Sum(a)).at(0).lo
            hi_b = self._vseq_of(b[0] if len(b) == 1 else Sum(b)).at(0).hi
            if hi_b is not None:
                best = max(best, lo_a - hi_b)
        return best
