"""Exact decision procedures for residual nilpotence of free-by-cyclic
and abelian-by-cyclic groups, driven by the induced integer matrix on
the abelianization.  All arithmetic is exact."""

from . import errors
from .intpoly import (
    FactorizationZ,
    IntPoly,
    factor_over_Z,
    linear_root_profile,
    poly_eval,
    poly_gcd,
    squarefree_decomposition,
    try_exact_div,
)
from .zlinalg import (
    DEFAULT_SIDE_CAP,
    IntMatrix,
    SmithForm,
    SubLattice,
    char_poly,
    determinant,
    hermite_form,
    is_unimodular,
    kronecker_power,
    lattice_chain,
    lattice_contains,
    smith_form,
)
from .freegroup import (
    AutoStatus,
    FreeEndo,
    FreeWord,
    abelianization_matrix,
    check_automorphism,
    endo_compose,
    endo_power,
    parse_word,
    word_invert,
    word_multiply,
)
from .liealg import (
    DEFAULT_WITT_CAP,
    LyndonBasis,
    induced_lie_matrix,
    lyndon_basis,
    lyndon_count,
    witt_dimension,
)
from .criteria import (
    ANCHORS,
    AfResult,
    AuditRecord,
    LcsLength,
    SubgroupReport,
    Verdict,
    Witness,
    af_criterion,
    augmentation_power_check,
    certainty,
    classify_f2,
    classify_family,
    classify_general,
    finite_index_resnil_subgroup,
    gamma_omega_is_fiber,
    integer_eigenvalue_criterion,
    is_prime,
    lie_component_audit,
    mikhailov_module_check,
    mod_p_unipotency,
    tensor_power_audit,
)

__version__ = "0.1.0"

_CLI_NAMES = ("BuiltinExample", "JobSpec", "builtin_examples", "run")


def __getattr__(name):
    # cli loads on first use: imported here eagerly, it would already be
    # in sys.modules when `python -m resnil.cli` runs it as __main__
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
