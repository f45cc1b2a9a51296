"""Environmental noise spectra: parametric components and tabulated data.

All spectra are one-sided power spectral densities S(omega) of the dephasing
frequency noise, omega in rad/s and S in rad/s, normalized so that the
mean-square noise amplitude is (1/pi) * integral_0^inf S(omega) d omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ValidationError

# share of a parametric spectrum's power that may lie past its extent
_EXTENT_REL = 1e-3


class ComponentKind(str, Enum):
    LORENTZIAN_DC = "lorentzian_dc"
    GAUSSIAN_PEAK = "gaussian_peak"


@dataclass(frozen=True)
class SpectralComponent:
    """One parametric line: coupling strength delta and width sigma (rad/s).

    The Lorentzian is centered at zero frequency; the Gaussian needs a center.
    Pointwise values are

        lorentzian: delta^2 / (pi sigma (1 + (omega/sigma)^2))
        gaussian:   delta^2 / (sqrt(2 pi) sigma) * exp(-(omega - center)^2 / (2 sigma^2))
    """

    kind: ComponentKind
    delta: float
    sigma: float
    omega_center: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ComponentKind(self.kind))
        if self.delta <= 0.0 or self.sigma <= 0.0:
            raise ValidationError("component delta and sigma must be positive")
        if self.kind is ComponentKind.GAUSSIAN_PEAK:
            if self.omega_center is None or self.omega_center <= 0.0:
                raise ValidationError("gaussian component needs omega_center > 0")
        elif self.omega_center is not None:
            raise ValidationError("lorentzian component is centered at zero")

    def eval(self, omega: np.ndarray) -> np.ndarray:
        if self.kind is ComponentKind.LORENTZIAN_DC:
            return self.delta ** 2 / (math.pi * self.sigma * (1.0 + (omega / self.sigma) ** 2))
        arg = (omega - self.omega_center) / self.sigma
        return self.delta ** 2 / (math.sqrt(2.0 * math.pi) * self.sigma) \
            * np.exp(-0.5 * arg * arg)

    def power(self) -> float:
        """Integral over omega >= 0."""
        if self.kind is ComponentKind.LORENTZIAN_DC:
            return 0.5 * self.delta ** 2
        z = self.omega_center / (math.sqrt(2.0) * self.sigma)
        return 0.5 * self.delta ** 2 * (1.0 + math.erf(z))

    def extent(self, tail_power: float) -> float:
        """Frequency above which the remaining component power < tail_power."""
        if self.kind is ComponentKind.GAUSSIAN_PEAK:
            return self.omega_center + 9.0 * self.sigma
        if tail_power >= self.power():
            return 3.0 * self.sigma
        # residual (delta^2/pi) * (pi/2 - atan(x/sigma)) == tail_power
        angle = math.pi / 2.0 - math.pi * tail_power / self.delta ** 2
        return self.sigma * math.tan(min(angle, math.pi / 2.0 - 1e-9))

    def refinement(self) -> np.ndarray:
        if self.kind is ComponentKind.GAUSSIAN_PEAK:
            lo = max(self.omega_center - 8.0 * self.sigma, 0.0)
            return np.linspace(lo, self.omega_center + 8.0 * self.sigma, 257)
        return np.concatenate([
            np.linspace(0.0, 4.0 * self.sigma, 65),
            np.geomspace(4.0 * self.sigma, 1e3 * self.sigma, 97),
        ])


@dataclass(frozen=True)
class NoiseSpectrum:
    """A one-sided PSD, parametric (sum of components) or tabulated.

    Tabulated spectra interpolate linearly and are zero outside their grid.
    ``power_factor`` scales the evaluated density pointwise, which keeps
    linearity tests exact.
    """

    components: tuple[SpectralComponent, ...] = ()
    table: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    power_factor: float = 1.0

    def __post_init__(self) -> None:
        if (len(self.components) == 0) == (self.table is None):
            raise ValidationError("spectrum needs components or a table, not both/neither")
        if self.power_factor <= 0.0:
            raise ValidationError("power_factor must be positive")
        if self.table is not None:
            w, s = (np.asarray(a, dtype=float) for a in self.table)
            if w.ndim != 1 or w.shape != s.shape or w.size < 2:
                raise ValidationError("table needs matching 1-d arrays of >= 2 points")
            if w[0] < 0.0 or np.any(np.diff(w) <= 0.0):
                raise ValidationError("table frequencies must be >= 0 and increasing")
            if np.any(s < 0.0) or not np.all(np.isfinite(s)):
                raise ValidationError("table values must be finite and non-negative")
            object.__setattr__(self, "table", (w, s))

    def eval(self, omega: np.ndarray | float) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        if np.any(w < 0.0):
            raise ValidationError("spectra are one-sided: omega must be >= 0")
        if self.table is not None:
            tw, ts = self.table
            out = np.interp(w, tw, ts, left=0.0, right=0.0)
        else:
            out = np.zeros_like(w)
            for comp in self.components:
                out = out + comp.eval(w)
        return self.power_factor * out

    __call__ = eval

    def total_power(self) -> float:
        if self.table is not None:
            tw, ts = self.table
            return self.power_factor * float(np.trapezoid(ts, tw))
        return self.power_factor * sum(c.power() for c in self.components)

    def extent(self) -> float:
        """Frequency beyond which less than ``_EXTENT_REL`` of the total
        power remains."""
        if self.table is not None:
            return float(self.table[0][-1])
        budget = _EXTENT_REL * sum(c.power() for c in self.components)
        return max(c.extent(budget) for c in self.components)

    def refinement_points(self) -> np.ndarray:
        """Abscissas that quadrature grids should include to see every feature."""
        if self.table is not None:
            return self.table[0]
        return np.unique(np.concatenate([c.refinement() for c in self.components]))

    def features_end(self) -> float:
        """Frequency past which S has no line and no table node left: above
        it S is zero or a Lorentzian tail, smooth on the scale of omega."""
        if self.table is not None:
            return float(self.table[0][-1])
        return max([c.omega_center + 9.0 * c.sigma for c in self.components
                    if c.kind is ComponentKind.GAUSSIAN_PEAK], default=0.0)

    def scaled(self, factor: float) -> "NoiseSpectrum":
        """Pointwise-exact rescaling S -> factor * S."""
        if factor <= 0.0:
            raise ValidationError("scale factor must be positive")
        return replace(self, power_factor=self.power_factor * factor)


def lorentzian_dc(delta: float, sigma: float) -> NoiseSpectrum:
    return NoiseSpectrum((SpectralComponent(ComponentKind.LORENTZIAN_DC, delta, sigma),))


def gaussian_peak(delta: float, sigma: float, omega_center: float) -> NoiseSpectrum:
    return NoiseSpectrum((SpectralComponent(
        ComponentKind.GAUSSIAN_PEAK, delta, sigma, omega_center),))


def tabulated(omegas: np.ndarray, values: np.ndarray) -> NoiseSpectrum:
    return NoiseSpectrum(table=(np.asarray(omegas, float), np.asarray(values, float)))


def composite(gauss_delta: float, gauss_sigma: float, gauss_center: float,
              lorentz_delta: float, lorentz_sigma: float) -> NoiseSpectrum:
    """Gaussian line plus zero-centered Lorentzian background."""
    return NoiseSpectrum((
        SpectralComponent(ComponentKind.GAUSSIAN_PEAK, gauss_delta, gauss_sigma,
                          gauss_center),
        SpectralComponent(ComponentKind.LORENTZIAN_DC, lorentz_delta, lorentz_sigma),
    ))


def default_experiment_spectrum() -> NoiseSpectrum:
    """Composite bath of the reference diamond-defect experiment.

    A strong Gaussian line at the nuclear-bath Larmor frequency
    (392 krad/s ~ 62.4 kHz) over a weak Lorentzian background, couplings in
    krad/s: 500 (line), 40 (background); widths 25 and 50 krad/s.
    """
    return composite(
        gauss_delta=500e3, gauss_sigma=25e3, gauss_center=392e3,
        lorentz_delta=40e3, lorentz_sigma=50e3,
    )
