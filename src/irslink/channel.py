"""Channel parameterization: Nakagami-m legs, log-distance path loss, sampling.

A link leg is described by its Nakagami shape ``m`` and large-scale linear
gain ``zeta``; the spread parameter is always the derived product
``kappa = m * zeta`` and is never entered independently.  Amplitudes are
sampled as the square root of a Gamma variate with shape ``m`` and scale
``zeta``, so the second moment of the amplitude equals ``kappa`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinkParams",
    "Modulation",
    "SystemConfig",
    "db_to_linear",
    "path_loss",
    "nakagami_sample",
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


def db_to_linear(db: float) -> float:
    """10^(db/10) by libm's power: the one conversion of every dB value."""
    return 10.0 ** (db / 10.0)


def path_loss(d: float, zeta0_db: float, exponent: float) -> float:
    """Linear channel-power gain 10^(-(zeta0 + 10*exponent*log10 d)/10)."""
    if d <= 0:
        raise ValueError(f"path_loss requires d > 0, got {d}")
    return db_to_linear(-(zeta0_db + 10.0 * exponent * math.log10(d)))


@dataclass(frozen=True)
class SystemConfig:
    """Full single-link system description.

    The surface is ``n_elements >= 1`` identical elements, each attenuating
    the amplitude by ``eta`` and seeing the leg gains ``g.zeta`` and
    ``h.zeta``, so every sum over the elements is N times one term.
    :func:`irslink.config.validate_config` builds the link of a config, with
    leg gains from :func:`path_loss` of its geometry.  ``gamma_bar_db`` is the
    operating point of the runs that do not sweep it; no law or sampler reads it.
    """

    n_elements: int
    eta: float
    v: LinkParams
    g: LinkParams
    h: LinkParams
    gamma_bar_db: float = 20.0
    modulation: Modulation = field(default_factory=Modulation)

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be at least 1, got {self.n_elements}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")

    @property
    def gamma_bar(self) -> float:
        return db_to_linear(self.gamma_bar_db)


def nakagami_sample(m: float, zeta: float, rng: np.random.Generator, size=None):
    """Nakagami-m amplitude draw(s) with E[X^2] = m * zeta.

    The square of the amplitude is Gamma(shape m, scale zeta), which is the
    Gamma identity the analytic moments rely on; sampling through it avoids
    rejection entirely.  The power is drawn as a standard Gamma variate and
    then scaled, which is how numpy forms ``rng.gamma(m, zeta)``: the stream
    is the same bit for bit.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {m}")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if size is None:
        return np.sqrt(rng.standard_gamma(m) * zeta)
    power = rng.standard_gamma(m, size)
    power *= zeta
    return np.sqrt(power, out=power)

