"""Positivity classification of linear maps between matrix algebras.

The toolkit certifies where a map sits in the positivity hierarchy
(k-positive, k-copositive, decomposable and its weak block-matrix variants)
and realizes the modular description of transposition numerically: the GNS
representation of a faithful state, the swap unitary and conjugations, the
polar factorization of the transposition carrier, the interpolating cone
family, and the bipartite natural cones with their partial-swap symmetry.

The package exports the API documented in the README; every other name is
imported from its own submodule (``posmap.maps``, ``posmap.linalg``, ...).
"""

from .choi import MatrixMap, cp_verdict
from .cones import bipartite_context, cone_member
from .kpositivity import (
    bisect_threshold,
    decomposability_witness,
    decomposition_certificate,
    dk_compose,
    is_k_copositive,
    is_k_positive,
    pk_check,
    sk_check,
)
from .linalg import herm_eig
from .modular import GnsContext, check_polar_factorization, check_unitary_relations, gns_context
from .report import recheck_witness
from .verdicts import EVIDENCE, PASS, VIOLATION, Verdict

__version__ = "0.1.0"

__all__ = [
    "MatrixMap",
    "cp_verdict",
    "bipartite_context",
    "cone_member",
    "bisect_threshold",
    "decomposability_witness",
    "decomposition_certificate",
    "dk_compose",
    "is_k_copositive",
    "is_k_positive",
    "pk_check",
    "sk_check",
    "herm_eig",
    "GnsContext",
    "check_polar_factorization",
    "check_unitary_relations",
    "gns_context",
    "recheck_witness",
    "EVIDENCE",
    "PASS",
    "VIOLATION",
    "Verdict",
    "__version__",
]
