"""Zero-rate reliability of finite-state channels with input-dependent
states: exponent computation, achieving codebooks, Monte Carlo validation,
and the Gaussian inter-symbol-interference specialization."""

__version__ = "0.1.0"

from .bhatt import (ChannelKernel, DistanceMatrix, bhattacharyya,
                    discrete_kernel, gaussian_kernel)
from .codebook import (CandidateSet, Codebook, MarkovTypeSpec,
                       blend_for_construction, build_codebook, build_ensemble,
                       emit_codeword, euler_circuit, expurgate, round_type)
from .errors import InfeasibleError, UnsupportedChannelError, ValidationError
from .exponent import (ConcavityReport, CostModel, ExponentResult,
                       PairDistribution, SolverOptions, TimeSharingPlan,
                       concavity_test, e0, feasibility_sccs, maximize_e0,
                       maximize_uce, support_is_connected)
from .fsm import (FeasiblePairSet, StateMachine, StructuralReport, augment,
                  check_structure, feasible_pairs, shift_register)
from .isi import (IsiSpec, QuantizedSinusoidStats, build_isi_machine,
                  choose_amplitude, e0_isi, gray_stats, irrationalize,
                  quantization_loss, spectral_bound)
from .montecarlo import (QuadrupleDistribution, SimulationReport,
                         pairwise_check, simulate, z_rho, z_rho_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
