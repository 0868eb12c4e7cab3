"""Symmetric two-qubit (spin-1) gates and their entangling capability.

The package provides spherical tensor operator bases for spin j <= 5/2,
the nine orthogonal Hermitian spin-1 basis matrices M0..M8 with their
full algebra, the eight one-parameter symmetric gates exp(i M_k theta)
plus the collective-spin (LMG) evolution gate, and the tools to quantify
entangling capability: the local invariant G1, the entangling power
e_p = (2/9)(1 - |G1|), and the pure-state concurrence.  Parameter grids
go through the batch functions (`gates_batch`, `lmg_batch`,
`entangling_power_batch`), whose results equal the scalar functions'
entry by entry.
"""

from .linalg import (
    InputError,
    anticommutator,
    commutator,
    expm_hermitian,
    is_hermitian,
    is_unitary,
)
from .tensors import (
    SpinMatrices,
    TensorOperator,
    TensorParams,
    angular_momentum_matrices,
    clebsch_gordan,
    decompose,
    hermitian_basis,
    reconstruct,
    rotate_params,
    spherical_basis,
    tau,
    wigner_d,
)
from .su3 import (
    ANTICOMMUTATOR_TABLE,
    COMMUTATOR_TABLE,
    GELL_MANN,
    M,
    U_QUBIT_TO_ANGULAR,
    build_hamiltonian,
    decompose_hamiltonian,
    from_qubit_basis,
    m_matrix,
    to_qubit_basis,
    verify_algebra_tables,
    verify_gellmann,
)
from .gates import (
    GateBatch,
    LMGParams,
    SymmetricGate,
    custom_gate,
    gate,
    gates_batch,
    lmg_batch,
    lmg_gate,
    lmg_hamiltonian,
)
from .entanglement import (
    BELL_TRANSFORM,
    EntanglementBatch,
    EntanglementReport,
    ProductBasis,
    SeparableSymmetricState,
    SpeConditionResult,
    apply_gate,
    concurrence,
    entangling_power,
    entangling_power_batch,
    lmg_entanglement_profile,
    makhlin_g1,
    product_basis,
    separable_state,
    spe_condition,
)

__version__ = "0.1.0"
