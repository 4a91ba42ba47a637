"""Noisy-channel simulation on qubits and qudits via state preparation.

A channel given as Kraus operators is traded for one pure state on the
system plus an ancilla (one level per operator).  That state is compiled
into a preparation circuit of multi-controlled rotations, lowered to an
elementary gate set, executed on a statevector simulator, and the system
state is recovered by partial trace or Pauli tomography.  The recovered
coherence matches the operator-sum prediction, which doubles as the
built-in oracle for every result.
"""

from .numerics import (
    DensityMatrix,
    PureState,
    basis_state,
    bloch_state,
    herm_eig,
    kron,
    partial_trace,
    trace_distance,
    uniform_state,
)
from .channels import (
    KrausChannel,
    apply_channel,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    generalized_amplitude_damping,
    heisenberg_weyl,
    hw_dephasing,
    hw_phase,
    hw_shift,
    l1_coherence,
    load_channel,
    pauli_channel,
    phase_damping,
    phase_flip,
    qutrit_amplitude_damping,
    save_channel,
    spin_boost_channel,
    validate_cptp,
    wigner_channel,
    wigner_rotation,
    WignerBoost,
)
from .dilation import (
    DilatedState,
    dilate_pure,
    embed_qudits,
    mixed_method_convex,
    mixed_method_double_purification,
    mixed_method_purify_evolved,
    postselect,
    recovered_system_state,
)
from .qsp import Circuit, Gate, lower, qasm_export, synthesize, synthesize_real, verify_preparation
from .simulator import ReadoutModel, ShotCounts, apply_readout_noise, mitigate, run, sample
from .tomography import expectations, reconstruct, settings_for

__version__ = "0.1.0"
