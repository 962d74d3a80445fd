"""Tensor-based receivers for bistatic integrated sensing and communication.

Two receive chains share one transmitted frame:

* a sensing chain that fits a slot-diagonal bilinear tensor model by
  alternating least squares to recover target steering matrices, per-slot
  reflection coefficients, and angles (:mod:`tensorisac.sensing_als`);
* a semi-blind communication chain that recovers the downlink channel and
  the data symbols from column-wise rank-one factorizations
  (:mod:`tensorisac.comm_krf`).

:mod:`tensorisac.signal_model` generates every physical quantity,
:mod:`tensorisac.tensor_ops` holds the tensor/linear-algebra kernels, and
:mod:`tensorisac.harness` drives seeded Monte Carlo sweeps with CSV output
(CLI: ``tensorisac``).
"""

from .comm_krf import (
    CommEstimate,
    detect_symbols,
    estimate_symbol_channel_product,
    krf_factorize,
    remove_scaling,
    semi_blind_receive,
    zf_benchmark,
)
from .exceptions import AlsDivergenceError, ConfigError, IdentifiabilityError
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    default_config,
    emit_plot_data,
    load_config,
    nmse,
    run_sweep,
    run_trial,
    ser,
)
from .sensing_als import (
    AlsConfig,
    IdentifiabilityReport,
    SensingEstimate,
    align_permutation,
    als_fit,
    check_identifiability,
    extract_angles,
    remove_sensing_ambiguity,
)
from .signal_model import (
    CommLink,
    SensingScene,
    TransmitFrame,
    add_noise,
    build_comm_link,
    build_steering_matrix,
    comm_forward,
    krst_code,
    qam_constellation,
    qam_demodulate,
    qam_modulate,
    sample_frame,
    sample_scene,
    sensing_forward,
    steering_vector,
)
from .tensor_ops import (
    best_rank_one,
    khatri_rao,
    kronecker,
    pinv,
    unfold1_flat,
    unfold3_tall,
    unvec,
    vec,
)

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "AlsDivergenceError",
    "CommEstimate",
    "CommLink",
    "ConfigError",
    "ExperimentConfig",
    "IdentifiabilityError",
    "IdentifiabilityReport",
    "MetricsRecord",
    "SensingEstimate",
    "SensingScene",
    "TransmitFrame",
    "add_noise",
    "align_permutation",
    "als_fit",
    "best_rank_one",
    "build_comm_link",
    "build_steering_matrix",
    "check_identifiability",
    "comm_forward",
    "default_config",
    "detect_symbols",
    "emit_plot_data",
    "estimate_symbol_channel_product",
    "extract_angles",
    "khatri_rao",
    "krf_factorize",
    "kronecker",
    "krst_code",
    "load_config",
    "nmse",
    "pinv",
    "qam_constellation",
    "qam_demodulate",
    "qam_modulate",
    "remove_scaling",
    "remove_sensing_ambiguity",
    "run_sweep",
    "run_trial",
    "sample_frame",
    "sample_scene",
    "semi_blind_receive",
    "sensing_forward",
    "ser",
    "steering_vector",
    "unfold1_flat",
    "unfold3_tall",
    "unvec",
    "vec",
    "zf_benchmark",
]
