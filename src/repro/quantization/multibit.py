"""Multi-bit quantizer (Jana et al., MobiCom 2009).

Divides the window's value range into ``2**bits_per_sample``
equal-probability bins (empirical quantiles), Gray-codes the bin index of
each sample, and optionally drops samples falling within a guard fraction
of a bin boundary, where small measurement asymmetries flip bins.  The
paper uses this quantizer on Bob's side of the prediction/quantization
model (Sec. IV-B).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.quantization.base import QuantizationResult, Quantizer
from repro.utils.bits import gray_code_table
from repro.utils.validation import require, require_in_range


class MultiBitQuantizer(Quantizer):
    """Equal-probability multi-bit quantization with Gray coding.

    Args:
        bits_per_sample: Bits extracted per kept sample (M); the window is
            split into ``2**M`` quantile bins.
        guard_band_fraction: Fraction of each bin's probability mass,
            adjacent to every internal boundary, whose samples are dropped.
            0 keeps everything.
        fixed_thresholds: If ``True``, bin boundaries are the *standard
            normal* quantiles applied to the z-scored window instead of
            the window's empirical quantiles.  Empirical quantiles from a
            short window are themselves noisy and estimated independently
            by the two parties; fixed boundaries remove that asymmetry
            (and make the bin function learnable by the quantization
            head, which is why the Vehicle-Key pipeline uses this mode).
    """

    def __init__(
        self,
        bits_per_sample: int = 2,
        guard_band_fraction: float = 0.0,
        fixed_thresholds: bool = False,
    ):
        require(1 <= bits_per_sample <= 8, "bits_per_sample must be in [1, 8]")
        require_in_range(guard_band_fraction, 0.0, 0.49, "guard_band_fraction")
        self.bits_per_sample = int(bits_per_sample)
        self.guard_band_fraction = float(guard_band_fraction)
        self.fixed_thresholds = bool(fixed_thresholds)
        self._codebook = gray_code_table(self.bits_per_sample)
        self._probabilities = np.arange(1, self.n_levels) / self.n_levels
        # Standard normal quantiles of the bin edges, computed once:
        # ``ndtri`` is the kernel behind ``scipy.stats.norm.ppf`` (same
        # bytes) without importing ``scipy.stats`` onto the serve path.
        self._normal_boundaries = ndtri(self._probabilities)

    @property
    def n_levels(self) -> int:
        """Number of quantization bins."""
        return 1 << self.bits_per_sample

    def quantize(self, values: np.ndarray) -> QuantizationResult:
        window = np.asarray(values, dtype=float)
        require(window.ndim == 1, "values must be 1-D")
        require(
            window.size >= self.n_levels,
            f"window of {window.size} samples is too small for "
            f"{self.n_levels} quantile bins",
        )
        if self.fixed_thresholds:
            std = window.std()
            normalized = (window - window.mean()) / (std if std > 0 else 1.0)
            levels = np.searchsorted(
                self._normal_boundaries, normalized, side="right"
            )
        else:
            # Empirical quantile boundaries (internal only).
            boundaries = np.quantile(window, self._probabilities)
            levels = np.searchsorted(boundaries, window, side="right")

        kept = np.ones(window.size, dtype=bool)
        if self.guard_band_fraction > 0:
            # Drop samples whose empirical CDF position is within
            # guard_band_fraction of a boundary's CDF position.
            order = np.argsort(window, kind="stable")
            cdf = np.empty(window.size)
            cdf[order] = (np.arange(window.size) + 0.5) / window.size
            guard = self.guard_band_fraction / self.n_levels
            for boundary_cdf in self._probabilities:
                kept &= np.abs(cdf - boundary_cdf) > guard
        bits = self._codebook[levels[kept]].reshape(-1)
        return QuantizationResult(
            bits=bits.astype(np.uint8), kept=kept, bits_per_sample=self.bits_per_sample
        )
