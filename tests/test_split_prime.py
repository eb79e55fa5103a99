"""Certificates modulo the split prime of a field context: a full rank or a
nonzero value mod p proves the exact answer; anything else falls back to the
exact computation, which alone decides a deficiency or a zero."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from oracles import random_hopf_representation
from twistalex.homology import build_complex, specialize_homology
from twistalex.laurent import LaurentMatrix, LaurentPoly, _strip_root
from twistalex.presentations import (
    Augmentation,
    Representation,
    hopf_augmentation,
    hopf_presentation,
    torus_germ_presentation,
)
from twistalex.scalars import CycloNumber, FieldContext, ScalarMatrix, cyclotomic_polynomial


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 60, 997, 1000])
def test_the_split_prime_carries_a_root_of_the_cyclotomic_polynomial(n):
    ctx = FieldContext(n)
    p, powers = ctx._split
    assert sympy.isprime(p) and p < 2**30 and (p - 1) % n == 0
    assert len(powers) == ctx.degree and powers[0] == 1
    w = powers[1] if ctx.degree > 1 else (p - 1 if n == 2 else 1)
    assert sympy.n_order(w, p) == n
    assert sum(c * pow(w, j, p) for j, c in enumerate(cyclotomic_polynomial(n))) % p == 0
    # No larger prime below 2^30 is 1 mod n.
    assert not any(sympy.isprime(q) for q in range(p + n, 2**30, n))


@pytest.mark.parametrize("n", [1, 5, 12])
def test_the_residue_map_is_a_ring_map(n):
    ctx = FieldContext(n)
    p = ctx._split[0]
    rng = random.Random(n)
    for _ in range(30):
        a, b = (CycloNumber(ctx, [rng.randint(-50, 50) for _ in range(ctx.degree)], rng.randint(1, 9)) for _ in "ab")
        ra, rb = ctx._point_residue(a), ctx._point_residue(b)
        assert ctx._point_residue(a + b) == (ra + rb) % p
        assert ctx._point_residue(a * b) == ra * rb % p


def _count_exact_eliminations(monkeypatch):
    # Matrix._bareiss calls on ScalarMatrix, the exact field elimination.
    calls = []
    bareiss = ScalarMatrix._bareiss
    monkeypatch.setattr(ScalarMatrix, "_bareiss", lambda self, *a, **k: calls.append(1) or bareiss(self, *a, **k))
    return calls


def _rank_cases(ctx, rng, count):
    # Random Laurent matrices of each shape, some with a dependent last row.
    for rows, cols in [(3, 4), (4, 2), (3, 3), (4, 3)] * count:
        entries = [
            [LaurentPoly(ctx, [ctx.zeta(rng.randrange(ctx.conductor)) * rng.randint(-3, 3) for _ in range(3)], rng.randint(-1, 1))
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if rng.random() < 0.5:
            entries[-1] = [a + b for a, b in zip(entries[0], entries[1])]
        yield LaurentMatrix(ctx, entries)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_rank_at_a_point_matches_the_exact_rank(n, monkeypatch):
    ctx = FieldContext(n)
    rng = random.Random(f"rank-at-{n}")
    calls = _count_exact_eliminations(monkeypatch)
    outcomes = set()
    for m in _rank_cases(ctx, rng, 5):
        a = ctx.zeta(rng.randrange(n)) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        calls.clear()
        rank = m._rank_at(a)
        exact_runs = len(calls)
        assert rank == m.specialize(a).rank()
        full = rank == min(m.rows, m.cols)
        # A deficiency is never read off the residues.
        assert exact_runs == 1 if not full else exact_runs <= 1
        outcomes.add((full, exact_runs))
    assert outcomes == {(True, 0), (False, 1)}


def test_a_deficient_specialization_falls_back_to_one_exact_rank(monkeypatch):
    # d(1) of the untwisted trefoil has a zero d1: the residues show rank 0
    # there, and the exact rank decides.  At t = 2 both boundaries have full
    # rank mod p, and no exact elimination runs.
    ctx = FieldContext(1)
    pres = torus_germ_presentation(2, 3)
    cx = build_complex(pres, Augmentation((3, 2)), Representation.trivial(ctx, 2))
    calls = _count_exact_eliminations(monkeypatch)
    assert specialize_homology(cx, 2) == (0, 0, 0)
    assert calls == []
    assert specialize_homology(cx, 1) == (1, 1, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("conductor", [1, 12])
def test_points_without_a_residue_fall_back(conductor, monkeypatch):
    # a = p has residue 0 and a = 1/p has p in its denominator: the exact
    # rank decides, and it is the one of the specialized matrix.
    ctx = FieldContext(conductor)
    p = ctx._split[0]
    one = LaurentPoly.one(ctx)
    t = LaurentPoly.t_power(ctx, 1)
    m = LaurentMatrix(ctx, [[t - one, t + one], [t**2 - one, t**2 + 2 * one]])
    calls = _count_exact_eliminations(monkeypatch)
    for a in (ctx.from_rational(p), ctx.from_rational(Fraction(1, p)), ctx.from_rational(p) * ctx.zeta(1)):
        before = len(calls)
        assert m._rank_at(a) == 2
        assert len(calls) == before + 1
    # A row that is 0 mod p but not 0: singular at p, not at 2p.
    m = LaurentMatrix(ctx, [[t - LaurentPoly.from_scalar(ctx, p), LaurentPoly.zero(ctx)], [one, one]])
    assert m._rank_at(p) == 1 and m._rank_at(2 * p) == 2


def test_entry_denominators_divisible_by_p_keep_the_exact_rank():
    # Rows are scaled by the lcm of their denominators before the residues
    # are taken: a row of 1/p t and 1 reduces to (t, p) = (t, 0), a row of
    # 1/p and 1/p t to (1, t); the certificate holds or falls back, never
    # misreads.
    for conductor in (1, 5):
        ctx = FieldContext(conductor)
        p = ctx._split[0]
        t = LaurentPoly.t_power(ctx, 1)
        inv_p = LaurentPoly.from_scalar(ctx, Fraction(1, p))
        one = LaurentPoly.one(ctx)
        half = LaurentPoly.from_scalar(ctx, Fraction(1, 2))
        cases = [
            ([[inv_p * t, one], [one, t]], 2),
            ([[inv_p, inv_p * t], [one, t]], 1),
            ([[inv_p * t, inv_p * (t + one)], [t, t + one]], 1),
            # Singular, with entries over different denominators in a row:
            # scaling entries one by one would make these look regular.
            ([[half * t, t], [one, 2 * one]], 1),
            ([[inv_p * t, t], [one, p * one]], 1),
        ]
        for entries, rank in cases:
            m = LaurentMatrix(ctx, entries)
            for a in (2, 3, ctx.zeta(1) if conductor > 1 else 5):
                assert m._rank_at(a) == m.specialize(a).rank() == rank


def test_a_value_that_is_zero_mod_p_but_not_zero_keeps_its_multiplicity():
    ctx = FieldContext(1)
    p = ctx._split[0]
    t = LaurentPoly.t_power(ctx, 1)
    one = LaurentPoly.one(ctx)
    # (t - 1 - p) at 1 is -p: zero mod p, so the exact value decides.
    assert _strip_root((t - one - p * one) * (t - one) ** 2, ctx.from_rational(1))[0] == 2
    assert _strip_root((t - p * one) ** 3 * (t + one), ctx.from_rational(p))[0] == 3
    assert _strip_root(t**2 + one, ctx.from_rational(Fraction(1, p)))[0] == 0


def test_singular_generators_finds_a_singular_matrix(monkeypatch):
    ctx = FieldContext(12)
    p = ctx._split[0]
    z = ctx.zeta(1)
    rho = Representation(
        ctx,
        [
            [[1, z], [z, z * z]],  # singular
            [[1, 0], [0, p]],  # singular mod p only
            [[z, 1], [1, 1]],
            [[0, 0], [0, 0]],
        ],
    )
    calls = []
    det = ScalarMatrix.det
    monkeypatch.setattr(ScalarMatrix, "det", lambda self: calls.append(1) or det(self))
    # The exact inverse alone decides: the matrix singular mod p only has
    # one, and no determinant is taken.
    assert rho.singular_generators() == (0, 3)
    assert (1, -1) in rho._letter_rows()
    assert calls == []


def test_a_generic_twisted_hopf_specialization_runs_no_exact_elimination(monkeypatch):
    ctx = FieldContext(12)
    rng = random.Random(5)
    pres = hopf_presentation(4)
    eps = hopf_augmentation([1, 1, 1, 1])
    rho = random_hopf_representation(ctx, 4, 2, rng)
    cx = build_complex(pres, eps, rho)
    calls = _count_exact_eliminations(monkeypatch)
    a = ctx.zeta(5) + Fraction(1, 2)
    dims = specialize_homology(cx, a)
    assert calls == []
    monkeypatch.undo()
    exact = [d.specialize(a).rank() for d in cx.boundaries]
    assert dims == (cx.ranks[0] - exact[0], cx.ranks[1] - exact[0] - exact[1], cx.ranks[2] - exact[1])
