"""Exact quadratic-form arithmetic and the cobordism replay."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from defslice.qform_verify import (
    QMatrix,
    _reduce,
    bcg_cobordism_check,
    c1_square,
    cobordism_form,
    is_characteristic,
    signature_of_form,
)
from oracles import c1_square_by_solve, diagonalize_by_fractions, inertia_by_congruence


class TestC1Square:
    def test_cobordism_form_n1(self):
        assert c1_square(cobordism_form(1), (-2, 0, 0)) == 1

    def test_cobordism_form_sweep(self):
        for n in range(1, 51):
            c1 = c1_square(cobordism_form(n), (-2, 0, 0))
            assert c1 == Fraction(2, n + 1)

    def test_rank_one(self):
        assert c1_square(QMatrix.from_rows([[1]]), (1,)) == 1

    def test_non_characteristic_rejected(self):
        with pytest.raises(ValueError, match="characteristic"):
            c1_square(cobordism_form(1), (1, 0, 0))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            c1_square(QMatrix.from_rows([[0, 0], [0, 2]]), (0, 0))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QMatrix.from_rows([[1, 2], [3, 1]])

    @pytest.mark.parametrize(
        "rows",
        [[[1.7]], [[True, 0], [0, 2]], [[1, 0], [0, 2.9]], [[Fraction(1, 2)]], [[Fraction(2)]]],
    )
    def test_non_int_entries_rejected(self, rows):
        # these were truncated through int(): [[1.7]] read as [[1]]
        with pytest.raises(TypeError, match="matrix entries must be ints"):
            QMatrix.from_rows(rows)
        with pytest.raises(TypeError, match="matrix entries must be ints"):
            QMatrix(tuple(tuple(r) for r in rows))

    @pytest.mark.parametrize("v", [(-2.0, 0, 0), (-2, 0.0, 0), (Fraction(-2), 0, 0), (-2, False, 0)])
    def test_non_int_class_rejected(self, v):
        # (-2.0, 0, 0) read as Fraction(-2) and gave 2/3; the integer
        # reduction would floor-divide a float
        with pytest.raises(TypeError, match="class entries must be ints"):
            c1_square(cobordism_form(2), v)
        with pytest.raises(TypeError, match="class entries must be ints"):
            is_characteristic(cobordism_form(2), v)

    def test_basis_invariance(self):
        rng = random.Random(99)
        Q = cobordism_form(3)
        v = (-2, 0, 0)
        base = c1_square(Q, v)
        for _ in range(50):
            U = _random_unimodular(rng, 3)
            Qp = _congruent(Q, U)
            vp = _dual_transform(v, U)
            assert is_characteristic(Qp, vp)
            assert c1_square(Qp, vp) == base


def _random_unimodular(rng, n):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            U[i][k] += c * U[j][k]
    return U


def _congruent(Q, U):
    n = Q.n
    UT_Q = [
        [sum(U[k][i] * Q.rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    rows = [
        [sum(UT_Q[i][k] * U[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return QMatrix.from_rows(rows)


def _dual_transform(v, U):
    n = len(v)
    return tuple(sum(U[k][i] * v[k] for k in range(n)) for i in range(n))


def _inertia_of(d):
    return (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))


def _random_form(rng, n):
    """A random symmetric form whose diagonal is often zero in places, or
    entirely, so that the swap and the pairing steps of the reduction run,
    with a characteristic v_i = Q_ii + 2 * random."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randrange(-3, 4)
    all_zero = rng.random() < 0.3
    for i in range(n):
        if not all_zero and rng.random() < 0.5:
            rows[i][i] = rng.randrange(-4, 5)
    v = tuple(rows[i][i] + 2 * rng.randrange(-3, 4) for i in range(n))
    return rows, v


class TestReductionAgainstOracles:
    """One reduction gives c1^2 and the inertia; the Gauss-Jordan solve and
    the inertia-only congruence it replaced are the references."""

    FORMS = [_random_form(random.Random(seed), 1 + seed % 6) for seed in range(360)]

    def test_forms_exercise_every_branch(self):
        zero_diag = sum(any(r[i] == 0 for i, r in enumerate(rows)) for rows, _ in self.FORMS)
        all_zero = sum(all(r[i] == 0 for i, r in enumerate(rows)) for rows, _ in self.FORMS)
        singular = sum(abs(np.linalg.det(np.array(rows, dtype=float))) < 0.5 for rows, _ in self.FORMS)
        assert zero_diag >= 150 and all_zero >= 60 and singular >= 20

    def test_c1_square(self):
        for rows, v in self.FORMS:
            Q = QMatrix.from_rows(rows)
            try:
                expected = c1_square_by_solve(Q, v)
            except ValueError as exc:
                assert str(exc) == "matrix is singular"
                with pytest.raises(ValueError, match="^matrix is singular$"):
                    c1_square(Q, v)
                continue
            assert c1_square(Q, v) == expected
            a = np.array(rows, dtype=float)
            w = np.array(v, dtype=float)
            assert math.isclose(w @ np.linalg.inv(a) @ w, expected, rel_tol=1e-9, abs_tol=1e-9)

    def test_inertia(self):
        for rows, _ in self.FORMS:
            Q = QMatrix.from_rows(rows)
            assert signature_of_form(Q) == inertia_by_congruence(Q)

    def test_matches_fraction_congruence(self):
        for rows, v in self.FORMS:
            Q = QMatrix.from_rows(rows)
            d, u = diagonalize_by_fractions(Q, v)
            inertia, corner, det = _reduce(Q, v)
            assert inertia == _inertia_of(d) == _reduce(Q)[0]
            assert _reduce(Q)[1] == 0
            if 0 not in d:
                assert det == math.prod(d)
                assert Fraction(-corner, det) == sum(ui * ui / di for ui, di in zip(u, d))

    @pytest.mark.parametrize("n", range(12, 33, 4))
    def test_dense_forms(self, n):
        # the last pivot is det Q, the product of the oracle's diagonal, so
        # c1^2 is the corner over det Q
        for seed in range(3):
            rows, v = _random_form(random.Random(1000 * n + seed), n)
            Q = QMatrix.from_rows(rows)
            d, u = diagonalize_by_fractions(Q, v)
            inertia, corner, det = _reduce(Q, v)
            assert inertia == _inertia_of(d) == inertia_by_congruence(Q)
            if 0 not in d:
                assert det == math.prod(d)
                assert Fraction(-corner, det) == c1_square_by_solve(Q, v)

    @pytest.mark.parametrize(
        "rows, v",
        [
            # pairing: no nonzero diagonal entry is left to swap in
            ([[0, 1], [1, 0]], (2, 4)),
            ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], (2, 4, -6)),
            # pairing after one elimination leaves a zero diagonal block
            ([[1, 1, 1], [1, 1, 0], [1, 0, 1]], (1, 3, -1)),
            # swap: a later diagonal entry is nonzero
            ([[0, 1], [1, 2]], (2, 4)),
            ([[0, 1, 1], [1, 0, 2], [1, 2, 3]], (4, -2, 1)),
            # swap after one elimination
            ([[1, 1, 0], [1, 1, 1], [0, 1, 2]], (3, 1, 0)),
        ],
    )
    def test_swap_and_pairing(self, rows, v):
        Q = QMatrix.from_rows(rows)
        assert c1_square(Q, v) == c1_square_by_solve(Q, v)
        assert signature_of_form(Q) == inertia_by_congruence(Q)

    def test_hyperbolic_value(self):
        # Q^{-1} = Q for the hyperbolic plane, so c1^2 = 2 * 2 * 4
        assert c1_square(QMatrix.from_rows([[0, 1], [1, 0]]), (2, 4)) == 16

    def test_replay(self):
        for n in range(1, 301):
            rep = bcg_cobordism_check(n)
            Q, outside = cobordism_form(n), QMatrix.from_rows([[2, 0], [0, 2 * n]])
            c1 = c1_square_by_solve(Q, (-2, 0, 0))
            c1_out = c1_square_by_solve(outside, (-2, 0))
            pos, neg, _ = inertia_by_congruence(Q)
            pos_out, neg_out, _ = inertia_by_congruence(outside)
            assert (rep.c1_sq, rep.c1_outside, rep.c1_cobordism) == (c1, c1_out, c1 - c1_out)
            assert rep.sigma_cobordism == (pos - neg) - (pos_out - neg_out)
            assert rep.b2_cobordism == (pos + neg) - (pos_out + neg_out)


class TestSignatureOfForm:
    def test_cobordism_form(self):
        for n in (1, 2, 7):
            assert signature_of_form(cobordism_form(n)) == (2, 1, 0)

    def test_positive_diagonal(self):
        assert signature_of_form(QMatrix.from_rows([[2, 0], [0, 10]])) == (2, 0, 0)

    def test_hyperbolic(self):
        assert signature_of_form(QMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_zero_block(self):
        assert signature_of_form(QMatrix.from_rows([[0, 0], [0, -3]])) == (0, 1, 1)

    def test_against_numeric_eigenvalues(self):
        rng = random.Random(20240809)
        for _ in range(100):
            n = rng.randrange(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randrange(-5, 6)
            Q = QMatrix.from_rows(rows)
            pos, neg, zero = signature_of_form(Q)
            eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
            npos = int(np.sum(eig > 1e-9))
            nneg = int(np.sum(eig < -1e-9))
            assert (pos, neg, zero) == (npos, nneg, n - npos - nneg)


class TestCobordismReplay:
    def test_n1(self):
        rep = bcg_cobordism_check(1)
        assert rep.passed
        assert rep.c1_sq == 1
        assert rep.c1_cobordism == -1
        assert rep.sigma_cobordism == -1 and rep.b2_cobordism == 1

    def test_n5(self):
        rep = bcg_cobordism_check(5)
        assert rep.passed
        assert rep.c1_cobordism == Fraction(-5, 3)

    def test_sweep(self):
        for n in range(1, 51):
            rep = bcg_cobordism_check(n)
            assert rep.passed, [i.name for i in rep.items if not i.passed]
            assert rep.c1_sq == Fraction(2, n + 1)

    def test_six_checks_present(self):
        rep = bcg_cobordism_check(2)
        assert [i.name for i in rep.items] == [
            "characteristic_vector",
            "c1_square",
            "restriction_split",
            "signature_and_b2",
            "pairings_and_spinc_labels",
            "inequality_reduction",
        ]

    def test_m0_variant_skipped(self):
        rep = bcg_cobordism_check(1)
        assert any("unavailable" in note for note in rep.skipped)

    def test_validation(self):
        with pytest.raises(ValueError):
            cobordism_form(0)
