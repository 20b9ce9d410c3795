"""Diagonal quantum channels as a small numpy library.

Construct orthonormal Hermitian operator bases, build diagonal channels
(including the four named depolarizing-type families), verify complete
positivity and trace preservation through Choi matrices, extract Kraus
operators via a semidefinite-tolerant Cholesky factorization, and compute
the classical transition probabilities a channel induces on the
computational basis.
"""

from .basis import (
    HermitianBasis,
    diagonal_block_slice,
    expand,
    generalized_pauli,
    orthonormal_basis,
    pair_indices,
    reconstruct,
)
from .channels import (
    ChannelFamily,
    DiagonalChannel,
    apply_channel,
    channel_coefficients,
    choi_matrix,
    family_parameter_range,
    is_completely_positive,
    is_trace_preserving,
    min_choi_eigenvalue,
)
from .kraus import (
    DegenerateChannelError,
    HybridClassicalPivots,
    KrausSet,
    hybrid_classical_kraus,
    hybrid_classical_pivots,
    kraus_from_channel,
    kraus_from_choi,
    reconstruction_residual,
    reshape_row,
)
from .linalg import (
    DEFAULT_TOL,
    NotPositiveSemidefiniteError,
    as_complex_matrix,
    as_density_matrix,
    as_hermitian,
    dagger,
    frobenius_norm,
    hermitian_eigenvalues,
    hs_inner,
    matrix_unit,
    max_norm,
    psd_cholesky,
)
from .transitions import (
    diagonal_block_coefficients,
    is_row_stochastic,
    transition_closed_form,
    transition_direct,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelFamily",
    "DEFAULT_TOL",
    "DegenerateChannelError",
    "DiagonalChannel",
    "HermitianBasis",
    "HybridClassicalPivots",
    "KrausSet",
    "NotPositiveSemidefiniteError",
    "apply_channel",
    "as_complex_matrix",
    "as_density_matrix",
    "as_hermitian",
    "channel_coefficients",
    "choi_matrix",
    "dagger",
    "diagonal_block_coefficients",
    "diagonal_block_slice",
    "expand",
    "family_parameter_range",
    "frobenius_norm",
    "generalized_pauli",
    "hermitian_eigenvalues",
    "hs_inner",
    "hybrid_classical_kraus",
    "hybrid_classical_pivots",
    "is_completely_positive",
    "is_row_stochastic",
    "is_trace_preserving",
    "kraus_from_channel",
    "kraus_from_choi",
    "matrix_unit",
    "max_norm",
    "min_choi_eigenvalue",
    "orthonormal_basis",
    "pair_indices",
    "psd_cholesky",
    "reconstruct",
    "reconstruction_residual",
    "reshape_row",
    "transition_closed_form",
    "transition_direct",
]
