"""Trellis inference toolkit: semiring reductions, chain posteriors,
iterative mean-field detectors, and the supporting channel / frequency
estimation experiment drivers.
"""

from .channel import (QamConstellation, augmented_model,
                      channel_transition_matrix, rayleigh_quantizer,
                      rho_from_doppler, snr_to_n0)
from .experiments import (ExperimentConfig, run_experiment,
                          run_freq_experiment, run_pe_demo, write_csv)
from .factors import (CITopology, Factor, FactorModel, VariableSpace,
                      fa_partition, load_model, nln_partition, save_model)
from .freq import FreqPrior, dft_grid, freq_posterior, tvb_freq, vb_freq
from .gdl import (NofViolation, count_operators, dual_entropy,
                  fb_reduce_sequential, fb_reduce_single, naive_reduce)
from .hmc import (HmcModel, bidirectional_viterbi, brute_force_posterior,
                  fb_algorithm, ml_detect, posterior_chain_factors, viterbi)
from .pe import pe_approximate, pe_model
from .semiring import ALL_SEMIRINGS, check_laws, semiring
from .vb import StoppingConfig, fcvb_run, init_shaping, ivb_run, kld_vb

__version__ = "0.1.0"

__all__ = [
    "ALL_SEMIRINGS", "CITopology", "ExperimentConfig", "Factor",
    "FactorModel", "FreqPrior", "HmcModel", "NofViolation",
    "QamConstellation", "StoppingConfig", "VariableSpace", "__version__",
    "augmented_model", "bidirectional_viterbi", "brute_force_posterior",
    "channel_transition_matrix", "check_laws", "count_operators",
    "dft_grid", "dual_entropy", "fa_partition", "fb_algorithm",
    "fb_reduce_sequential", "fb_reduce_single", "fcvb_run",
    "freq_posterior", "init_shaping", "ivb_run", "kld_vb", "load_model",
    "ml_detect", "naive_reduce", "nln_partition", "pe_approximate",
    "pe_model", "posterior_chain_factors", "rayleigh_quantizer",
    "rho_from_doppler", "run_experiment", "run_freq_experiment",
    "run_pe_demo", "save_model", "semiring", "snr_to_n0", "tvb_freq",
    "vb_freq", "viterbi", "write_csv",
]
