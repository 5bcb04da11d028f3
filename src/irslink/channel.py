"""Channel parameterization: Nakagami-m legs, log-distance path loss, sampling.

A link leg is described by its Nakagami shape ``m`` and large-scale linear
gain ``zeta``; the spread parameter is always the derived product
``kappa = m * zeta`` and is never entered independently.  Amplitudes are
sampled as the square root of a Gamma variate with shape ``m`` and scale
``zeta``, so the second moment of the amplitude equals ``kappa`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

__all__ = [
    "LinkParams",
    "Modulation",
    "SystemConfig",
    "path_loss",
    "nakagami_sample",
    "rician_to_nakagami",
]


@dataclass(frozen=True)
class LinkParams:
    """One Nakagami-m channel leg: shape ``m`` and large-scale gain ``zeta``."""

    m: float
    zeta: float

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {self.m}")
        if self.zeta <= 0:
            raise ValueError(f"large-scale gain must be positive, got {self.zeta}")

    @property
    def kappa(self) -> float:
        return self.m * self.zeta


@dataclass(frozen=True)
class Modulation:
    """Conditional-error parameters: P(error | snr) = alpha * Q(sqrt(beta*snr))."""

    alpha: float = 1.0  # BPSK
    beta: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("modulation parameters must be positive")


def path_loss(d: float, zeta0_db: float, exponent: float) -> float:
    """Linear channel-power gain 10^(-(zeta0 + 10*exponent*log10 d)/10)."""
    if d <= 0:
        raise ValueError(f"path_loss requires d > 0, got {d}")
    return 10.0 ** (-(zeta0_db + 10.0 * exponent * math.log10(d)) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Full single-link system description.

    ``eta`` is the per-element amplitude attenuation vector (length
    ``n_elements``).  ``zeta_g`` / ``zeta_h`` are per-element large-scale
    gains, filled from the legs' ``zeta`` where not given.
    :func:`irslink.config.validate_config` builds the homogeneous link of a
    config, with leg gains from :func:`path_loss` of its geometry.
    """

    n_elements: int
    eta: np.ndarray
    v: LinkParams
    g: LinkParams
    h: LinkParams
    gamma_bar_db: float = 20.0
    modulation: Modulation = field(default_factory=Modulation)
    zeta_g: np.ndarray | None = None
    zeta_h: np.ndarray | None = None

    def __post_init__(self):
        if self.n_elements < 0:
            raise ValueError("n_elements must be nonnegative")
        eta = np.broadcast_to(np.asarray(self.eta, dtype=float), (self.n_elements,)).copy()
        if np.any(eta <= 0) or np.any(eta > 1):
            raise ValueError("every eta_n must lie in (0, 1]")
        object.__setattr__(self, "eta", eta)
        for name, link in (("zeta_g", self.g), ("zeta_h", self.h)):
            z = getattr(self, name)
            z = link.zeta if z is None else z
            z = np.broadcast_to(np.asarray(z, dtype=float), (self.n_elements,)).copy()
            if np.any(z <= 0):
                raise ValueError(f"{name} entries must be positive")
            object.__setattr__(self, name, z)

    @property
    def gamma_bar(self) -> float:
        return 10.0 ** (self.gamma_bar_db / 10.0)

    @property
    def kappa_g(self) -> np.ndarray:
        """Per-element spread of the incident leg, m_g * zeta_g_n."""
        return self.g.m * self.zeta_g

    @property
    def kappa_h(self) -> np.ndarray:
        return self.h.m * self.zeta_h

    def with_gamma_bar_db(self, gamma_bar_db: float) -> "SystemConfig":
        return replace(self, gamma_bar_db=gamma_bar_db)

    def with_n_elements(self, n: int) -> "SystemConfig":
        """Resize a homogeneous config; rejects heterogeneous element data."""
        if self.n_elements and (np.ptp(self.eta) or np.ptp(self.zeta_g) or np.ptp(self.zeta_h)):
            raise ConfigError("cannot resize a config with heterogeneous elements")
        eta = self.eta[0] if self.n_elements else 0.9
        return replace(self, n_elements=n, eta=eta, zeta_g=None, zeta_h=None)


def nakagami_sample(m: float, zeta, rng: np.random.Generator, size=None):
    """Nakagami-m amplitude draw(s) with E[X^2] = m * zeta.

    The square of the amplitude is Gamma(shape m, scale zeta), which is the
    Gamma identity the analytic moments rely on; sampling through it avoids
    rejection entirely.  The power is drawn as a standard Gamma variate and
    then scaled, which is how numpy forms ``rng.gamma(m, zeta)``: the stream
    is the same bit for bit, without broadcasting the scale through the draw.
    ``zeta`` may be an array (per-element gains) broadcasting against ``size``.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {m}")
    if np.any(np.asarray(zeta) <= 0):
        raise ValueError("zeta must be positive")
    if size is None and np.ndim(zeta) == 0:
        return np.sqrt(rng.standard_gamma(m) * zeta)
    power = rng.standard_gamma(m, np.shape(zeta) if size is None else size)
    power *= zeta
    return np.sqrt(power, out=power)


def rician_to_nakagami(k_factor: float) -> float:
    """Shape of the Nakagami approximation to Rician fading with factor K."""
    if k_factor < 0:
        raise ValueError("Rician K-factor must be nonnegative")
    return (k_factor + 1.0) ** 2 / (2.0 * k_factor + 1.0)
