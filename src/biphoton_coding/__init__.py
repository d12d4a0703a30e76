"""Spectral coding toolkit for multiplexed frequency-entangled photon pairs.

Simulates quasi-orthogonal block coding of biphoton joint spectra: joint
spectral amplitudes and their Schmidt decompositions, Alamouti-style code
matrices, ideal and mode-resolved second-order correlations with their
contrast metrics, multi-channel frequency-bin layouts with factorized
decoding, and the driven-cascade equations of motion used to validate the
closed-form pair amplitude.

All frequencies and rates are in units of the natural linewidth gamma,
times in units of 1/gamma.  Every name is imported from its own module,
e.g. ``from biphoton_coding.codes import alamouti_n``.
"""

__version__ = "0.1.0"
