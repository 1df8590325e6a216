"""Exact homological calculus for quiver algebras with relations.

Computes Hom and first-extension spaces of finite-dimensional quiver
representations, counts submodule and flag varieties over prime fields,
turns the counts into exact Euler characteristics by interpolation, and
verifies the two multiplication identities relating extension strata to
evaluation forms.
"""

from .algebra import (AlgebraError, AlgebraPresentation, Arrow, Path, Quiver,
                      Relation, arrow_path, build_preprojective,
                      double_quiver, make_quiver, relation, vertex_path)
from .counting import (CountError, count_efg, count_flags, count_grassmannian,
                       good_prime, iter_submodules, stratify_ext_classes)
from .delta import (DeltaSignature, check_delta_multiplicativity,
                    delta_signature, enumerate_flag_types,
                    stratify_by_signature)
from .euler import EulerError, EulerValue, good_primes, interpolate_euler
from .ext import (ExtError, ExtSpace, beta_map, ext1_space, ext_dim,
                  ext_symmetry_audit, middle_term)
from .fields import GF, RATIONALS, FieldError
from .fileio import (FormatError, algebra_to_dict, catalog_to_dict,
                     load_algebra, load_catalog, load_module, parse_algebra,
                     parse_catalog, parse_module)
from .modules import (ModuleError, RepModule, UndecidableError, check_module,
                      composition_series, direct_sum, direct_sum_many,
                      hom_basis, hom_dim, is_isomorphic, module_from_fractions,
                      reduce_module, simple_at_vertex, sub_quotient,
                      zero_module)
from .verify import (VerificationReport, VerifyError, run_audit_suite,
                     verify_formula1, verify_formula2)

__version__ = "1.0.0"
