"""Exact unit groups and 2-class numbers of Q(sqrt2, sqrtp, sqrtq)."""

from .arith import PrimePair, is_perfect_square, is_prime, legendre_symbol
from .classnumber import h2_real_quadratic, kuroda_h2K, subfield_h2_map
from .errors import InternalInconsistencyError, ResourceGuardError, TriquadError
from .harness import Config, VerificationRecord, scan_pairs, verify_pair
from .octic import (OcticElem, TAU1, TAU2, TAU3, apply_automorphism,
                    embed_quadratic, norm_to_subfield, octic_mul, sqrt_exact)
from .quadratic import fundamental_unit
from .theorems import (CaseTag, SqrtDecomposition, classify_pair,
                       decompose_sqrt_data, predict_h2K, unit_generators)
from .unit_lattice import UnitWord, rank_certificate, saturate

__version__ = "0.1.0"
