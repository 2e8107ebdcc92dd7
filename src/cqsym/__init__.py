"""Hopf algebras of colored labeled posets and colored quasisymmetric
functions, with brute-force enumeration oracles for differential testing.

The working objects are colored compositions and permutations (combinat),
canonical-form labeled posets with their product, coproduct and antipode
(poset), QSym elements in the monomial, fundamental and peak bases along
with the generating-function maps from posets (qsym), characters and the
universal morphism into QSym (characters), and truncated-alphabet
enumeration oracles (oracle).
"""

from .combinat import (
    check_comp, check_perm, weight, reverse, rainbow_decompose, refines,
    refinements, coarsenings, star, hat, is_peak_composition,
    descent_composition, color_runs, peak_set, peak_composition,
    standardize, rep_chain, conjugate, shuffles, enumerate_compositions,
    peak_compositions, count_peak_compositions, ribbon_cells, ribbon_decode,
    conjugate_via_diagram,
)
from .poset import (
    Poset, PElt, make_poset, empty_poset, chain_poset, antichain_poset,
    disjoint_union, canonical_form, equivalent, labeled_orders,
    canonical_posets, natural_extension, is_naturally_labeled,
    is_monochromatic, product_key, product, coproduct, counit, antipode,
    antipode_key, antipode_chains_key,
)
from .qsym import (
    QElt, BASES, f_to_m, m_to_f, k_to_m, k_to_m_key, peak_function,
    to_monomial, multiply, antipode_inductive, antipode_inductive_key,
    peak_projection, ppartition_gf, enriched_gf, m_rank,
)
from .qsym import coproduct as qsym_coproduct
from .qsym import counit as qsym_counit
from .qsym import antipode as qsym_antipode
from .characters import (
    Domain, Character, poset_domain, qsym_domain, counit_character,
    convolve, inverse, bar, nu, zeta_qsym, zeta_poset, zeta_qsym_all,
    zeta_poset_all, nu_qsym, nu_poset, nu_qsym_all, nu_poset_all,
    universal_morphism,
)
from .oracle import (
    TPoly, enumerate_ppartitions, enumerate_enriched, truncate,
    split_alphabet_check, product_law_check, extension_partition_check,
)

__version__ = "0.1.0"
