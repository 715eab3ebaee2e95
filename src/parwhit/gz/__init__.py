from .arrays import SupportConstraints, TriangularArray, random_array
from .combin import check_combin_identities, combin1, combin2, factor, separated_nodes
from .operators import (DifferenceOperator, adjoint, build_Eij, build_EnN,
                        commutator, coxeter_cycle, gen, measure_ratio, twist)
from .whittaker import (LeftWhittakerReport, RightSupportReport, psi_L,
                        verify_left_whittaker, verify_right_support_relations)

__all__ = [
    "TriangularArray", "SupportConstraints", "random_array",
    "factor", "combin1", "combin2", "separated_nodes", "check_combin_identities",
    "DifferenceOperator", "measure_ratio", "gen", "commutator", "build_Eij",
    "build_EnN", "twist", "adjoint", "coxeter_cycle",
    "psi_L", "verify_left_whittaker", "verify_right_support_relations",
    "LeftWhittakerReport", "RightSupportReport",
]
