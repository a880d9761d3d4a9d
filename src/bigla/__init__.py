"""Exact symbolic kernel for bi-graded Lie algebras over Q(zeta8)."""

from .scalars import (ALL_DEGREES, BiDegree, CycloScalar, D00, D01, D10, D11,
                      I, MINUS_ONE, ONE, Rational, ZERO, ZETA, degree,
                      sign_deligne, sign_super, sign_unbraid)
from .linear import AntiLinearMap, BiGradedSpace, BilinearMap, LinearMap, Vector
from .linalg import Matrix
from .lie import (BiGradedAssocAlgebra, BiGradedLieAlgebra, check_antisymmetry,
                  check_homogeneity, check_jacobi, check_lie, commutator_lie,
                  jacobiator, require_lie)
from .equivalence import (AlphaCheckResult, SuperLieAlgebraWithInvolution,
                          alpha_sweep, involution_from_bidegree,
                          jacobiator_alpha_check, rebraid, twist, unbraid)
from .catalog import (MatrixRep, algebra_B, m2_superalgebra, mat2_adapted_basis,
                      mat2_star, odd_pair, so3, so3_group_automorphism,
                      so3_group_elements, so3_standard_rep, so12,
                      tilde_extension, unitary_example, upper_triangular3)
from .uea import (MAX_TRUNCATION, EnvelopingAlgebra, TensorElement,
                  UEAElement, antipode, counit, delta, delta_slot, delta_word,
                  hopf_failures, normal_form, normal_form_random, pbw_dims,
                  uea_multiply, weyl_map)
from .hc import (Functional, bch_product, commutativity_failures, convolution,
                 convolution_commutes, equivariant_functionals,
                 equivariant_hom_basis, inner_automorphism_check)
from .deformed import (ConjSymPoly, DistinguisherCertificate, EvenOddPoly,
                       character_at, parse_poly, star_product,
                       star_vs_pointwise_distinguisher, to_complex,
                       untwisting_failures)
from . import errors, schema

__version__ = "0.1.0"
