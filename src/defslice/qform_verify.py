"""Exact quadratic-form toolkit for the connected-sum cobordism replay.

Verifies, in exact rational arithmetic, the bookkeeping behind the
V_n(K # J) <= V_0(K) + V_n(J) bound: the three-handle intersection form,
its characteristic class, the square and restriction split of c_1, the
signatures, the pairings with the capped surface classes, and the final
cancellation of the definite-cobordism inequality down to the bound.
Each form is reduced once, by symmetric congruence, and c_1^2 and the
inertia are both read off the one diagonal.
"""

from __future__ import annotations

from fractions import Fraction

from .hf_invariants import lens_d
from .knotexpr import _Record


class QMatrix(_Record):
    """Symmetric integer matrix (an intersection form in a handle basis)."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if type(x) is not int:
                    raise TypeError(f"matrix entries must be ints, got {x!r}")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.rows)


def is_characteristic(Q: QMatrix, v: tuple) -> bool:
    """Whether the integer class v, a tuple in the dual (cocore) basis, is
    characteristic for Q: v.x = x^T Q x (mod 2) for all x, which in the
    dual pairing reduces to v_i = Q_ii (mod 2)."""
    if len(v) != Q.n:
        return False
    return all((v[i] - Q.rows[i][i]) % 2 == 0 for i in range(Q.n))


def _diagonalize(Q: QMatrix, v=None):
    """(d, u): a congruence P^T Q P = diag(d) over the rationals, and
    u = P^T v, with v = 0 when it is not given.

    Each step is a row operation E^T a followed by the matching column
    operation a E on the working matrix a, so a stays symmetric and equal to
    P^T Q P for the product P of the E so far; u = P^T v takes each step as
    u <- E^T u, the row operation alone:
      - swap i and k: swap u_i and u_k;
      - pairing (row i += row k, column i += column k, used when
        a_ii = a_kk = 0 and a_ik != 0, making a_ii = 2 a_ik): u_i += u_k;
      - elimination (row j -= f row i, column j -= f column i, with
        f = a_ji / a_ii): u_j -= f u_i.
    A pivot whose remaining row is zero is skipped with d_i = 0.

    P is invertible, so diag(d) has the inertia of Q (Sylvester's law of
    inertia), and Q is singular exactly when some d_i is 0.  Otherwise
    Q^{-1} = P diag(d)^{-1} P^T, so v^T Q^{-1} v = sum u_i^2 / d_i.
    """
    n = Q.n
    a = [[Fraction(x) for x in row] for row in Q.rows]
    u = [Fraction(c) for c in (v if v is not None else [0] * n)]
    d = []
    for i in range(n):
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is not None:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
                u[i], u[k] = u[k], u[i]
            else:
                k = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if k is None:
                    d.append(a[i][i])
                    continue
                for j in range(n):
                    a[i][j] += a[k][j]
                for j in range(n):
                    a[j][i] += a[j][k]
                u[i] += u[k]
        d.append(a[i][i])
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / a[i][i]
                for k2 in range(n):
                    a[j][k2] -= f * a[i][k2]
                for k2 in range(n):
                    a[k2][j] -= f * a[k2][i]
                u[j] -= f * u[i]
    return d, u


def _inertia(d):
    return (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))


def _c1_and_inertia(Q: QMatrix, v: tuple):
    """(v^T Q^{-1} v, inertia of Q) from one reduction of Q."""
    if not is_characteristic(Q, v):
        raise ValueError(f"{v} is not characteristic for the form")
    d, u = _diagonalize(Q, v)
    if 0 in d:
        raise ValueError("matrix is singular")
    return sum((ui * ui / di for ui, di in zip(u, d)), Fraction(0)), _inertia(d)


def c1_square(Q: QMatrix, v: tuple) -> Fraction:
    """v^T Q^{-1} v for a characteristic v given in the cocore basis."""
    return _c1_and_inertia(Q, v)[0]


def signature_of_form(Q: QMatrix):
    """Exact inertia (n_plus, n_minus, n_zero) by symmetric congruence."""
    return _inertia(_diagonalize(Q)[0])


def cobordism_form(n: int) -> QMatrix:
    """Intersection form of the three-handle diagram gluing a 2-framed and a
    2n-framed handle into a (2n+2)-framed connected-sum handle."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return QMatrix.from_rows([[2, 0, 1], [0, 2 * n, 1], [1, 1, 0]])


class CheckItem(_Record):
    __slots__ = ("name", "passed", "detail")


class CobordismReport(_Record):
    __slots__ = (
        "n",
        "items",
        "skipped",
        "c1_sq",
        "c1_outside",
        "c1_cobordism",
        "sigma_cobordism",
        "b2_cobordism",
    )

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def bcg_cobordism_check(n: int) -> CobordismReport:
    """Replay the negative-definite cobordism arithmetic for parameter n >= 1.

    All six checks run in exact rational arithmetic; any failure indicates
    an implementation or sign-convention error, not a mathematical one.
    """
    Q = cobordism_form(n)
    v = (-2, 0, 0)
    items = []

    char_ok = is_characteristic(Q, v)
    items.append(
        CheckItem(
            "characteristic_vector",
            char_ok,
            f"v = {v} has v_i = Q_ii (mod 2)",
        )
    )

    c1, inertia_total = _c1_and_inertia(Q, v)
    items.append(
        CheckItem("c1_square", c1 == Fraction(2, n + 1), f"c1^2 = {c1} (expected 2/(n+1))")
    )

    # restriction to the boundary-sum piece: dual coordinates (-2, 0) on diag(2, 2n)
    outside = QMatrix.from_rows([[2, 0], [0, 2 * n]])
    c1_out, inertia_out = _c1_and_inertia(outside, (-2, 0))
    c1_w = c1 - c1_out
    split_ok = c1_out == 2 and c1_w == Fraction(-2 * n, n + 1)
    items.append(
        CheckItem(
            "restriction_split",
            split_ok,
            f"c1^2 = {c1_out} + ({c1_w}) (expected 2 + (-2n/(n+1)))",
        )
    )

    sigma_total = inertia_total[0] - inertia_total[1]
    sigma_out = inertia_out[0] - inertia_out[1]
    sigma_w = sigma_total - sigma_out
    rank_total = inertia_total[0] + inertia_total[1]
    rank_out = inertia_out[0] + inertia_out[1]
    b2_w = rank_total - rank_out
    items.append(
        CheckItem(
            "signature_and_b2",
            inertia_total == (2, 1, 0) and sigma_w == -1 and b2_w == 1,
            f"inertia {inertia_total}, sigma(W) = {sigma_total} - {sigma_out} = {sigma_w}, "
            f"b2(W) = {b2_w}",
        )
    )

    surfaces = {"F_K": (1, 0, 0), "F_J": (0, 1, 0), "F_KJ": (1, -1, 2 * n)}
    pairings = {
        name: sum(c * f for c, f in zip(v, fv)) for name, fv in surfaces.items()
    }
    framings = {"F_K": 2, "F_J": 2 * n, "F_KJ": 2 * n + 2}
    labels = {name: (pairings[name] + framings[name]) // 2 for name in surfaces}
    pairings_ok = (
        pairings == {"F_K": -2, "F_J": 0, "F_KJ": -2}
        and labels == {"F_K": 0, "F_J": n, "F_KJ": n}
    )
    items.append(
        CheckItem(
            "pairings_and_spinc_labels",
            pairings_ok,
            f"<c1, F> = {pairings}, Spin^c labels = {labels}",
        )
    )

    # inequality reduction: c1(s|_W)^2 + b2(W) <= 4d(Y_2) - 4d(Y_1), with the
    # surgery formula substituted at the labels above.  d(S^3_p(K), i) reads
    # max{V_i, V_{p-i}} = V_{min(i, p-i)}.  The lens terms and the cobordism
    # data must cancel exactly, leaving 0 <= 8(V_0(K)+V_n(J)-V_n(K#J)).
    idx_k, idx_j, idx_kj = (min(labels[s], framings[s] - labels[s]) for s in surfaces)
    lens_part = (
        4 * lens_d(2 * n + 2, 1, n) - 4 * lens_d(2, 1, 0) - 4 * lens_d(2 * n, 1, n)
    )
    constant = lens_part - (c1_w + b2_w)
    reduction_ok = constant == 0 and (idx_k, idx_j, idx_kj) == (0, n, n)
    items.append(
        CheckItem(
            "inequality_reduction",
            reduction_ok,
            f"constant terms cancel to {constant}; residue is "
            f"0 <= 8*(V_{idx_k}(K) + V_{idx_j}(J) - V_{idx_kj}(K#J))",
        )
    )

    return CobordismReport(
        n=n,
        items=items,
        skipped=("V_0(K # J) <= V_0(K) + V_0(J) handle diagram: unavailable, not replayed",),
        c1_sq=c1,
        c1_outside=c1_out,
        c1_cobordism=c1_w,
        sigma_cobordism=sigma_w,
        b2_cobordism=b2_w,
    )
