"""Acceptance gate: eleven exact-arithmetic criteria, one line per criterion.

Run with -s to see the lines; under plain pytest each criterion is one
pass/fail test.  Everything here is exact: no tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from bigla.catalog import (algebra_B, m2_superalgebra, so3, so12,
                           so3_group_automorphism, so3_group_elements,
                           so3_standard_rep, tilde_extension, unitary_example)
from bigla.deformed import (EvenOddPoly, character_at, star_product,
                            to_complex)
from bigla.equivalence import jacobiator_alpha_check, rebraid, unbraid
from bigla.errors import BiglaError
from bigla.hc import (bch_product, convolution_commutes,
                      equivariant_functionals, equivariant_hom_basis,
                      inner_automorphism_check)
from bigla.lie import BiGradedLieAlgebra, check_lie, commutator_lie
from bigla.linear import BilinearMap, Vector
from bigla.scalars import CycloScalar, I, ONE
from bigla.uea import EnvelopingAlgebra, hopf_failures, normal_form_random, pbw_dims

from test_catalog import algebra_B_rep, bracket_failures, catalog_lie, unitary_embedding
from test_equivalence import identity_holds
from test_hc import primitive_vector, series_log


def _report(number: int, title: str, ok: bool):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {title}")
    assert ok, f"criterion {number:02d}: {title}"


def test_criterion_01_axiom_suite():
    algebras = {
        "so3": so3(),
        "so12": so12(),
        "qalgebra-lie": commutator_lie(algebra_B()),
        "qmat2-lie": commutator_lie(tilde_extension(m2_superalgebra())),
        "unitary2x2": unitary_example(),
    }
    ok = True
    for name, g in algebras.items():
        report = check_lie(g)
        ok = ok and all(v == [] for v in report.values())
    _report(1, "homogeneity, antisymmetry, Jacobi exact on the five algebras", ok)


def test_criterion_02_unbraiding():
    s = unbraid(so3())
    g = s.algebra
    target = so12()
    constants_ok = (
        g.bracket.pair(0, 1).coeffs == {2: ONE}          # [e1,e2] = e3
        and g.bracket.pair(2, 0).coeffs == {1: ONE}      # [e3,e1] = e2
        and g.bracket.pair(1, 2).coeffs == {0: -ONE})    # [e2,e3] = -e1
    match_ok = all(g.bracket.pair(i, j).coeffs == target.bracket.pair(i, j).coeffs
                   for i in range(3) for j in range(3))
    round_ok = True
    for name, h in catalog_lie().items():
        back = rebraid(unbraid(h))
        round_ok = round_ok and back.space.degrees == h.space.degrees
        round_ok = round_ok and all(
            back.bracket.pair(i, j).coeffs == h.bracket.pair(i, j).coeffs
            for i in range(h.dim) for j in range(h.dim))
    _report(2, "twist sends the rotation algebra to its split form; "
               "round trip is the identity on the catalog",
            constants_ok and match_ok and round_ok)


def test_criterion_03_alpha_identity():
    ok = True
    for name, g in catalog_lie().items():
        n = g.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ok = ok and identity_holds(jacobiator_alpha_check(g, a, b, c))
    rng = random.Random(2024)
    base = so3()
    degrees = base.space.degrees
    for _ in range(100):
        # homogeneous but otherwise arbitrary: the identity needs values in
        # the degree of their arguments, not Jacobi or antisymmetry
        constants = {}
        for _ in range(rng.randrange(3, 8)):
            i, j = rng.randrange(3), rng.randrange(3)
            allowed = [k for k in range(3)
                       if degrees[k] == degrees[i] + degrees[j]]
            v = base.space.basis_vector(rng.choice(allowed)).scale(
                rng.randrange(-4, 5))
            if v:
                constants[(i, j)] = constants.get((i, j), base.space.zero()) + v
        g = BiGradedLieAlgebra(base.space, BilinearMap(base.space, constants))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    ok = ok and identity_holds(jacobiator_alpha_check(g, a, b, c))
    _report(3, "jacobiator sign identity on all catalog triples and 100 "
               "perturbed non-Lie brackets", ok)


def test_criterion_04_matrix_rep_relations():
    b = algebra_B()
    rep = algebra_B_rep()
    one, q1, q2, q3 = (rep.images[k] for k in range(4))
    iv = rep.of_vector(b.space.basis_vector(0).scale(I))
    relations = [
        q1 @ q1 == iv,                                        # q1^2 = i
        q2 @ q2 == rep.of_vector(b.space.basis_vector(0).scale(-I)),
        q3 @ q3 == one,                                       # q3^2 = 1
        q1 @ q2 == q3,                                        # q1 q2 = q3
        q1 @ q3 == rep.of_vector(b.space.basis_vector(2).scale(I)),
        q2 @ q3 == rep.of_vector(b.space.basis_vector(1).scale(-I)),
    ]
    _report(4, "all six defining relations hold for the 4x4 matrices", all(relations))


def test_criterion_05_pbw_counts_and_confluence():
    ok = True
    for name, g in catalog_lie().items():
        counted, formula = pbw_dims(EnvelopingAlgebra(g), 4)
        ok = ok and counted == formula
    so3_counts, _ = pbw_dims(EnvelopingAlgebra(so3()), 4)
    ok = ok and so3_counts == [1, 3, 6, 10, 15]
    rng = random.Random(777)
    ctx = EnvelopingAlgebra(unitary_example())
    for _ in range(500):
        w = tuple(rng.randrange(ctx.g.dim) for _ in range(rng.randrange(1, 6)))
        ok = ok and normal_form_random(ctx, w, rng) == ctx.normal_form(w)
    _report(5, "normal-word counts match the symmetric formula; two rewrite "
               "strategies agree on 500 words", ok)


def test_criterion_06_hopf_suite():
    ok = True
    for g in (so3(), unitary_example()):
        _, fails = hopf_failures(EnvelopingAlgebra(g), 3)
        ok = ok and not any(fails.values())
    _report(6, "coproduct, counit, antipode, cocommutativity, and the "
               "symmetrization identity on words up to length 3", ok)


def test_criterion_07_equivariant_functionals():
    ok = True
    for g in (so3(), unitary_example()):
        ctx = EnvelopingAlgebra(g)
        basis = equivariant_functionals(ctx, 3)
        for phi in basis:
            for psi in basis:
                if phi.shift() is None or psi.shift() is None:
                    ok = False
                    continue
                ok = ok and convolution_commutes(phi, psi)
    g = so3()
    ok = ok and len(equivariant_hom_basis(EnvelopingAlgebra(g), 2)) == 1
    g = unitary_example()
    ok = ok and len(equivariant_hom_basis(EnvelopingAlgebra(g), 6)) == 16
    _report(7, "convolution commutes on the equivariant bases; dimensions "
               "are 2^(odd letters)", ok)


def test_criterion_08_composition_law():
    g = so3()
    ctx = EnvelopingAlgebra(g)
    e1, e2 = g.space.basis_vector(0), g.space.basis_vector(1)
    log = bch_product(g, e1, e2, 2)
    ok = (log.pretty() == "e1 + e2 + 1/2*e3"
          and primitive_vector(series_log(ctx, e1, e2, 2)) == log)
    rng = random.Random(4096)
    gu = unitary_example()
    ctxu = EnvelopingAlgebra(gu)
    even = [k for k in range(gu.dim) if gu.space.degrees[k].parity == 0]
    for _ in range(10):
        x = Vector(g.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                             for k in range(3)})
        y = Vector(g.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                             for k in range(3)})
        ok = ok and primitive_vector(series_log(ctx, x, y, 4)) == bch_product(g, x, y, 4)
    for _ in range(10):
        x = Vector(gu.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                              for k in even})
        y = Vector(gu.space, {k: CycloScalar.from_rational(rng.randrange(-2, 3))
                              for k in even})
        ok = ok and (primitive_vector(series_log(ctxu, x, y, 4))
                     == bch_product(gu, x, y, 4))
    _report(8, "order-2 composition oracle, and the bracket series equal to "
               "the primitive U(g) log at order 4 for 20 seeded even pairs", ok)


def test_criterion_09_inner_automorphism():
    rep = so3_standard_rep()
    elements = so3_group_elements()
    target = so3_group_automorphism()
    good = inner_automorphism_check(rep, elements["reflection-diag"], target)
    bad = inner_automorphism_check(rep, elements["rotation-x"], target)
    # the quarter turn rotates the plane: conjugation carries e2 to e3
    rot = elements["rotation-x"]
    moved = rot @ rep.images[1] @ rot.transpose()
    discrepancy = moved == rep.images[2]
    _report(9, "reflection implements the degree involution, the quarter "
               "turn sends e2 to e3 instead",
            good == [] and 1 in bad and discrepancy)


def test_criterion_10_deformed_products():
    rng = random.Random(512)
    ok = True
    for _ in range(200):
        f = EvenOddPoly({k: Fraction(rng.randrange(-4, 5))
                         for k in range(rng.randrange(9))})
        h = EvenOddPoly({k: Fraction(rng.randrange(-4, 5))
                         for k in range(rng.randrange(9))})
        ok = ok and to_complex(star_product(f, h)) == to_complex(f) * to_complex(h)
    x = EvenOddPoly.variable()
    ok = ok and star_product(x, x) == EvenOddPoly({2: -1})
    for k in range(9):
        mono = EvenOddPoly({k: 1})
        value, tag = character_at(mono, Fraction(0))
        ok = ok and tag == "R" and value.is_conj_fixed()
    value, tag = character_at(x, Fraction(1))
    ok = ok and value == I and tag == "C"
    with pytest.raises(BiglaError, match="^character points must be >= 0, got -1$"):
        character_at(x, Fraction(-1))
    _report(10, "untwisting is an isomorphism on 200 pairs; the star square "
                "flips sign; characters split by residue", ok)


def test_criterion_11_unitary_embedding():
    source, target, phi = unitary_embedding()
    _report(11, "the block-tagged inclusion is a bracket morphism on all "
                "basis pairs", bracket_failures(source, target, phi) == [])
