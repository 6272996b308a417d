"""Zero-rate reliability of finite-state channels with input-dependent
states: exponent computation, achieving codebooks, Monte Carlo validation,
and the Gaussian inter-symbol-interference specialization.

The public names are loaded on first use (PEP 562): `import zerorate`
imports no submodule, and `zerorate.X` imports only the module defining X.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bhatt": ("ChannelKernel", "DistanceMatrix", "bhattacharyya", "discrete_kernel",
              "gaussian_kernel"),
    "codebook": ("CandidateSet", "Codebook", "MarkovTypeSpec", "blend_for_construction",
                 "build_codebook", "build_ensemble", "emit_codeword", "euler_circuit",
                 "expurgate", "round_type"),
    "errors": ("InfeasibleError", "UnsupportedChannelError", "ValidationError"),
    "exponent": ("ConcavityReport", "ExponentResult", "PairDistribution", "TimeSharingPlan",
                 "concavity_test", "e0", "feasibility_sccs", "maximize_e0", "maximize_uce",
                 "support_is_connected"),
    "fsm": ("CostModel", "FeasiblePairSet", "StateMachine", "StructuralReport", "augment",
            "check_structure", "feasible_pairs", "shift_register"),
    "isi": ("IsiSpec", "QuantizedSinusoidStats", "build_isi_machine", "choose_amplitude",
            "gray_stats", "irrationalize", "quantization_loss", "spectral_bound"),
    "montecarlo": ("SimulationReport", "pairwise_check", "simulate", "z_rho", "z_rho_sweep"),
    "polytope": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read on every access, never cached here, so a rebinding of the
    # module's global is what zerorate.X returns
    return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
