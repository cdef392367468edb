"""Exact block combinatorics for Weyl groups.

Root systems and weights over exact rationals, the integral Weyl group of a
rational weight with its extended group and chamber subgroup, double-coset
counts of block classes, a graded tensor-word calculus with a rewriting
normal form, the Kazhdan-Lusztig machinery of the block's Hecke algebra, and
character-level translation identities.
"""

from .rootsys import (
    CartanDatum,
    FiniteAbelianElement,
    FiniteAbelianGroup,
    GroupBoundExceeded,
    Root,
    UnknownTypeError,
    Weight,
    WeightClass,
    WeylElement,
    build_root_system,
    classify_weight,
    dominant_dot_weight,
    dot_action,
    lattice_class,
    to_dominant_dot,
    torsion_group,
    weight_lattice_tests,
)
from .coxeter import (
    DoubleCosetDecomposition,
    SubgroupHandle,
    bruhat_leq,
    dot_stabilizer,
    double_cosets,
    from_word,
    generate_group,
    length,
    reduced_word,
    subgroup,
)
from .integral import (
    IntegralDatum,
    ProperPair,
    are_compatible,
    chamber_decompose,
    dominant_dot_rep,
    enumerate_Xi,
    find_regular_dominant,
    find_subgeneric,
    integral_datum,
    lambda_sharp,
    tau,
)
from .soergel import (
    BimoduleWord,
    BsLetter,
    PObjectSpec,
    RwLetter,
    SingularWord,
    build_P_object,
    grading,
    indecomposable_index,
    make_word,
    normalize,
    p_object_spec,
    random_rewrite,
    rank_left,
    rewrite_sites,
    rewrite_step,
    validate_singular_word,
)
from .hecke import (
    HeckeElement,
    KLCache,
    LaurentPoly,
    bs_character,
    bs_left,
    decompose,
    decompose_graded,
    kl_cache,
    kl_generator,
    kl_polynomial,
)
from .cat_o import (
    VermaCombination,
    dominant_character,
    irrep_weight_multiset,
    linked,
    translate_verma,
    verma_translator,
    weyl_dimension,
    zero_weight_multiplicity,
)

__version__ = "0.1.0"
