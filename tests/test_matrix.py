"""The shared dense matrix: one implementation of the ring-independent
operations, with coercion and elimination supplied per ring."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from oracles import random_invertible_matrix
from twistalex.laurent import LaurentMatrix, LaurentPoly
from twistalex.scalars import ContextMismatchError, FieldContext, Matrix, ScalarMatrix

SHARED = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__", "identity", "zero", "is_zero", "embed")


def test_shared_operations_are_defined_once():
    for name in SHARED:
        assert name in vars(Matrix), name
        assert name not in vars(ScalarMatrix), name
        assert name not in vars(LaurentMatrix), name


def test_elimination_stays_on_each_ring():
    # The benchmark tracer wraps these through vars(cls).
    for name in ("rank", "det", "inverse"):
        assert name in vars(ScalarMatrix), name
    for name in ("determinant", "minors_gcd", "smith_normal_form", "specialize"):
        assert name in vars(LaurentMatrix), name


def test_constructors_coerce_into_the_ring():
    ctx = FieldContext(4)
    z = ctx.zeta(1)
    m = ScalarMatrix(ctx, [[1, z]])
    assert m.entries == ((ctx.one, z),)
    lm = LaurentMatrix(ctx, [[1, z, LaurentPoly.t_power(ctx, 2)]])
    assert isinstance(lm.entries, tuple) and all(isinstance(e, LaurentPoly) for e in lm.entries[0])
    assert lm[0, 1] == LaurentPoly.from_scalar(ctx, z)
    assert (lm.rows, lm.cols) == (1, 3)
    assert LaurentMatrix.from_scalar_matrix(m, 3)[0, 1] == LaurentPoly.t_power(ctx, 3, z)
    with pytest.raises(ValueError):
        ScalarMatrix(ctx, [[1, 2], [3]])


def test_identity_zero_and_products_in_both_rings():
    ctx = FieldContext(6)
    for cls in (ScalarMatrix, LaurentMatrix):
        eye = cls.identity(ctx, 3)
        zero = cls.zero(ctx, 3, 2)
        assert eye.is_identity() and not zero.is_identity()
        assert zero.is_zero() and (zero.rows, zero.cols) == (3, 2)
        assert eye * zero == zero
        transposed = cls(ctx, list(zip(*zero.entries)))
        assert transposed * eye == transposed
        assert (eye - eye).is_zero() and -eye + eye == cls.zero(ctx, 3, 3)
        assert 2 * eye == eye + eye == eye * 2


def test_a_matrix_with_no_rows_keeps_its_column_count():
    ctx = FieldContext(6)
    for cls in (ScalarMatrix, LaurentMatrix):
        for empty in (cls.zero(ctx, 0, 3), cls.identity(ctx, 3).submatrix([], range(3))):
            assert (empty.rows, empty.cols) == (0, 3)
            assert empty != cls.zero(ctx, 0, 0)
            assert empty * cls.zero(ctx, 3, 2) == cls.zero(ctx, 0, 2)
            assert cls.zero(ctx, 2, 0) * empty == cls.zero(ctx, 2, 3)
            assert -empty == empty + empty == 2 * empty == empty
        with pytest.raises(ValueError, match="inner dimensions differ"):
            cls.zero(ctx, 0, 3) * cls.zero(ctx, 2, 2)


def test_mixed_rings_never_combine():
    ctx = FieldContext(3)
    s = ScalarMatrix.identity(ctx, 2)
    lm = LaurentMatrix.identity(ctx, 2)
    for op in (lambda: s * lm, lambda: lm * s, lambda: s + lm, lambda: lm - s):
        with pytest.raises(TypeError):
            op()
    assert s != lm


def test_context_and_shape_mismatches():
    small, big = FieldContext(4), FieldContext(12)
    for cls in (ScalarMatrix, LaurentMatrix):
        a, b = cls.identity(small, 2), cls.identity(big, 2)
        for op in (lambda: a + b, lambda: a * b, lambda: cls(small, [[big.one]])):
            with pytest.raises(ContextMismatchError):
                op()
        for op in (lambda: a + cls.identity(small, 3), lambda: a * cls.zero(small, 3, 3)):
            with pytest.raises(ValueError):
                op()
    assert ScalarMatrix.identity(small, 2).embed(big) == ScalarMatrix.identity(big, 2)


def _leibniz(m: ScalarMatrix):
    # Determinant as the signed sum over permutations: no elimination.
    n = m.rows
    total = m.context.zero
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -m.context.one if inversions % 2 else m.context.one
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + term
    return total


def test_det_agrees_with_the_leibniz_formula():
    rng = random.Random(7)
    for conductor in (1, 5, 12):
        ctx = FieldContext(conductor)
        for size in (1, 2, 3, 4):
            m = random_invertible_matrix(ctx, size, rng)
            assert m.det() == _leibniz(m)
            assert (m * m.inverse()).is_identity()
            singular = ScalarMatrix(ctx, list(m.entries[:-1]) + [m.entries[0]]) if size > 1 else ScalarMatrix.zero(ctx, 1, 1)
            assert singular.det().is_zero() and _leibniz(singular).is_zero()
            assert singular.rank() == size - 1
