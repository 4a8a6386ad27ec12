"""slcong: congruence lattices of finite meet semilattices.

Validation, congruence counting and enumeration, the dual correspondence
with join-closed subsets of S+, quasi-tree decomposition and the extremal
classification, plus isomorphism-free generation of all small semilattices.
"""

from .congruences import (
    Partition,
    all_lattice_congruences,
    all_meet_congruences,
    all_meet_congruences_bruteforce,
    congruence_generated,
    count_interval_block_equivalences,
    is_lattice,
    is_meet_congruence,
    quotient,
)
from .core import (
    SemilatticeTable,
    Ubta,
    UbtaFamily,
    are_isomorphic,
    attach_above,
    canonical_form,
    extend_below,
    isomorphism_witness,
    named,
    validate,
)
from .enumeration import (
    Spectrum,
    enumerate_semilattices,
    enumerate_semilattices_bruteforce,
    spectrum,
    top_values,
)
from .joinsub import (
    DualityReport,
    PartialJoinStructure,
    congruence_count,
    verify_duality,
)
from .structure import (
    ClassificationReport,
    SemilatticeClass,
    classify,
    convex_block_congruence_check,
    is_quasi_tree,
    is_tree,
    nucleus,
    nucleus_table,
    skeleton,
    tree_congruence,
)

__version__ = "0.1.0"
