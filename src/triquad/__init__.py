"""Exact unit groups and 2-class numbers of Q(sqrt2, sqrtp, sqrtq)."""

from .arith import PrimePair
from .harness import verify_pair
from .octic import embed_quadratic, sqrt_exact
from .quadratic import fundamental_unit

__version__ = "0.1.0"
