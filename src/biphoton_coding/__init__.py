"""Spectral coding toolkit for multiplexed frequency-entangled photon pairs.

Simulates quasi-orthogonal block coding of biphoton joint spectra: joint
spectral amplitudes and their Schmidt decompositions, Alamouti-style code
matrices, ideal and mode-resolved second-order correlations with their
contrast metrics, multi-channel frequency-bin layouts with factorized
decoding, and the driven-cascade equations of motion used to validate the
closed-form pair amplitude.

All frequencies and rates are in units of the natural linewidth gamma,
times in units of 1/gamma.
"""

from .codes import (CodeMatrix, CodeVectorSpec, alamouti2, alamouti_n, gram,
                    make_c)
from .correlation import (BinnedDecode, CodingAssignment, ContrastReport,
                          G2Matrix, LevelClass, acceptance_gate,
                          codeword_digits, coding_bin_mask, contrasts,
                          contrasts_from_levels, convolution,
                          convolution_grid, g2_ideal_multi, g2_matrix_ideal,
                          g2_matrix_ideal_multi, g2_matrix_numeric,
                          g2_numeric, g2_prefactor, level_summary,
                          matched_decode, pair_correlation_kernel,
                          sum_frequency_amplitude)
from .dynamics import (AmplitudeState, DriveParams, DynamicsResult,
                       compare_dynamics, default_t_final, dsi_analytic,
                       integrate_eom)
from .errors import (BadLength, BinOverlap, BiphotonCodingError,
                     ChannelShapeMismatch, CodeSpaceOverflow, ConfigError,
                     CycleDetected, DegenerateMatrix, DegenerateSpectrum,
                     InfeasibleDecode, NotConverged, NotPowerOfTwo, OddM,
                     StepFailure, UnderResolvedGrid, ValidityWarning)
from .layout import (ChannelLayout, dimension, factor_decode, staircase,
                     validate)
from .schmidt import SchmidtDecomposition, decompose, entropy, reconstruct
from .spectra import (GAMMA_2PI_MHZ, FrequencyGrid, MultiplexedSpectrum,
                      PairShift, PhysicalParams, angular_to_mhz,
                      gaussian_envelope, jsa_multiplexed, jsa_single,
                      lorentzian_factor, marginal_idler_mode,
                      marginal_signal_mode, mhz_to_angular)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeState", "BadLength", "BinOverlap", "BinnedDecode",
    "BiphotonCodingError", "ChannelLayout", "ChannelShapeMismatch",
    "CodeMatrix", "CodeSpaceOverflow", "CodeVectorSpec", "CodingAssignment",
    "ConfigError", "ContrastReport", "CycleDetected", "DegenerateMatrix",
    "DegenerateSpectrum", "DriveParams", "DynamicsResult", "FrequencyGrid",
    "G2Matrix", "GAMMA_2PI_MHZ", "InfeasibleDecode", "LevelClass",
    "MultiplexedSpectrum", "NotConverged", "NotPowerOfTwo", "OddM",
    "PairShift", "PhysicalParams", "SchmidtDecomposition", "StepFailure",
    "UnderResolvedGrid", "ValidityWarning", "alamouti2", "alamouti_n",
    "acceptance_gate", "angular_to_mhz", "codeword_digits",
    "coding_bin_mask", "compare_dynamics", "contrasts",
    "contrasts_from_levels", "convolution", "convolution_grid",
    "decompose", "default_t_final", "dimension", "dsi_analytic", "entropy",
    "factor_decode", "g2_ideal_multi", "g2_matrix_ideal",
    "g2_matrix_ideal_multi", "g2_matrix_numeric", "g2_numeric",
    "g2_prefactor", "gaussian_envelope", "gram", "integrate_eom",
    "jsa_multiplexed", "jsa_single", "level_summary", "lorentzian_factor",
    "make_c", "marginal_idler_mode", "marginal_signal_mode",
    "matched_decode", "mhz_to_angular", "pair_correlation_kernel",
    "reconstruct", "staircase", "sum_frequency_amplitude", "validate",
]
