"""Quantum Bruhat graphs, admissible sets, and dimension-formula machinery
for finite and affine Weyl groups, with brute-force oracles at desk scale."""

from .cartan import Coweight, RootSystem, TypeLabelError, build_root_system
from .coxeter import (
    Automorphism,
    CoxeterGroup,
    GroupElement,
    automorphism_from_one_line,
    build_witness,
    diagram_automorphisms,
    get_group,
    identity_automorphism,
    lr_class_of_longest,
    max_length_twisted_coset,
    twisted_class,
)
from .qbg import (
    QuantumBruhatGraph,
    build_qbg,
    exists_path_with_weight,
    min_twisted_distance,
    qbg_distance,
    qbg_weight,
)
from .affine import (
    AdmissibleSet,
    AffineElement,
    AffineWeylGroup,
    affine_group,
    is_admissible_superregular,
    superregular_check,
)
from .newton import SigmaConjClass, gln_classes, is_neutrally_acceptable, mazur_margin, mu_diamond
from .dimension import (
    DimensionReport,
    d_adm_bruteforce,
    d_adm_formula,
    dim_x,
    eta_sigma,
    verify_theorem_52,
    virtual_dimension,
)

__version__ = "0.1.0"
