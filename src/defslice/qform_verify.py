"""Exact quadratic-form toolkit for the connected-sum cobordism replay.

Verifies the bookkeeping behind the V_n(K # J) <= V_0(K) + V_n(J) bound:
the three-handle intersection form, its characteristic class, the square
and restriction split of c_1, the signatures, the pairings with the capped
surface classes, and the final cancellation of the definite-cobordism
inequality down to the bound.  One integer congruence of each form, bordered
by its class, gives its inertia and c_1^2, the one Fraction it builds.
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
    dual pairing reduces to v_i = Q_ii (mod 2).  An entry that is not an
    int raises TypeError, as in QMatrix."""
    if any(type(x) is not int for x in v):
        raise TypeError(f"class entries must be ints, got {v!r}")
    if len(v) != Q.n:
        return False
    return all((v[i] - Q.rows[i][i]) % 2 == 0 for i in range(Q.n))


def _reduce(Q: QMatrix, v=None):
    """(inertia, corner, det): the inertia (n_plus, n_minus, n_zero) of Q
    and, if Q is nonsingular, det B and det Q for B = [[Q, v], [v^T, 0]].

    Bareiss's fraction-free elimination of B (v = 0 if None) as a symmetric
    congruence, pivoting on the indices of Q in turn.  With C = P^T B P
    after the swaps and pairings so far (P of det 1 or -1, fixing the
    border), L the pivots taken, prev the last (1 before any) and T the
    later unskipped indices, prev = det C[L, L] and a_jk = det C[L+j, L+k]
    on T: prev times the Schur complement S of C[L, L], by Sylvester's
    identity, and S is the matrix of the same steps in fractions.  A minor
    of C is linear in its last row and column, so a swap (a_ii = 0 != a_kk)
    or a pairing (each later a_kk is 0, a_ik != 0: row and column i += row
    and column k, so a_ii = 2 a_ik) moves a as it moves S.  A skip
    (a_ik = 0 for i and each later k of Q) leaves a, L and prev: row i of S
    is zero on Q, and stays so, as eliminations subtract multiples of its
    pivot entry 0.  Eliminating by p = a_ii adds i to L, and the new a_jk =
    (p a_jk - a_ji a_ik) // prev is det C[L+i+j, L+i+k] (Sylvester): exact,
    and a minor of C, bounded by Hadamard's inequality.  The p / prev and a
    0 per skip are a diagonal congruent to Q: by Sylvester's law of inertia
    the signs of p * prev give the inertia.  With no skip, prev ends as
    det C[Q, Q] = det Q and the corner as det C = det B, which the Schur
    complement of Q in B makes det Q * (0 - v^T Q^{-1} v).
    """
    n = Q.n
    u = [0] * n if v is None else list(v)
    a = [[*row, c] for row, c in zip(Q.rows, u)] + [u + [0]]
    prev, neg, zero = 1, 0, 0
    for i in range(n):
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is not None:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
            else:
                k = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if k is None:
                    zero += 1
                    continue
                for j in range(i + 1, n + 1):
                    a[i][j] = a[j][i] = a[i][j] + a[k][j]
                a[i][i] = 2 * a[i][k]
        ai = a[i]
        p = ai[i]
        neg += (p > 0) != (prev > 0)
        for aj in a[i + 1:]:
            f = aj[i]
            for k in range(i + 1, n + 1):
                aj[k] = (p * aj[k] - f * ai[k]) // prev
        prev = p
    return (n - neg - zero, neg, zero), a[n][n], prev


def _c1_and_inertia(Q: QMatrix, v: tuple):
    """(v^T Q^{-1} v, inertia of Q) from one reduction of Q, bordered by v."""
    if not is_characteristic(Q, v):
        raise ValueError(f"{v} is not characteristic for the form")
    inertia, corner, det = _reduce(Q, v)
    if inertia[2]:
        raise ValueError("matrix is singular")
    return Fraction(-corner, det), inertia


def c1_square(Q: QMatrix, v: tuple) -> Fraction:
    """v^T Q^{-1} v for a characteristic v given in the cocore basis."""
    return _c1_and_inertia(Q, v)[0]


def signature_of_form(Q: QMatrix):
    """Exact inertia (n_plus, n_minus, n_zero) by symmetric congruence."""
    return _reduce(Q)[0]


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

    All six checks are exact; any failure indicates an implementation or
    sign-convention error, not a mathematical one.
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
