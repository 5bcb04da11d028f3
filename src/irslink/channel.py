"""Channel parameterization: Nakagami-m legs, log-distance path loss, sampling.

A link leg is described by its Nakagami shape ``m`` and large-scale linear
gain ``zeta``; the spread parameter is always the derived product
``kappa = m * zeta`` and is never entered independently.  Amplitudes are
sampled as the root of ``zeta`` times a unit-scale Gamma(m) power
(:func:`gamma_power`), so the second moment of the amplitude equals
``kappa`` exactly.  An integer shape up to ``ERLANG_MAX_SHAPE`` draws that
power as -log of a product of ``m`` uniform arrays (an Erlang draw), which
holds the output and one uniform array of its size; every other shape takes
numpy's Gamma sampler.
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
    "nakagami_draw",
    "gamma_power",
    "uniform_phase",
    "nakagami_sample",
    "ERLANG_MAX_SHAPE",
]

# The largest integer shape drawn as -log of a product of uniforms: up to
# it, that draw is faster than ``rng.standard_gamma``'s rejection sampler
# (CHANGES.md has the per-shape timing).  The MC streams depend on it.
ERLANG_MAX_SHAPE = 4


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
    operating point of the runs that do not sweep it.  The SNR law and the
    Monte-Carlo samplers of :mod:`irslink.montecarlo` work per unit transmit
    SNR; :func:`irslink.correlation.simulate_scheme_rates` reads it.
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


def nakagami_draw(m: float) -> str:
    """The draw :func:`nakagami_sample` takes at shape ``m``: ``"erlang"``
    for an integer 1 <= m <= ``ERLANG_MAX_SHAPE``, ``"gamma"`` otherwise."""
    return "erlang" if float(m).is_integer() and 1 <= m <= ERLANG_MAX_SHAPE else "gamma"


def gamma_power(m: float, rng: np.random.Generator, size) -> np.ndarray:
    """Unit-scale Gamma(shape m) draws, an array of shape ``size``.

    An integer shape 1 <= m <= ``ERLANG_MAX_SHAPE`` draws -log(U_1 ... U_m),
    an Erlang draw: each U_j is a whole array ``1 - rng.random(size)`` on
    (0, 1], drawn after U_{j-1} (a component-major stream), multiplied in
    left to right, then one log.  A sum of m unit exponentials -log U_j is
    Gamma(m, 1) exactly (Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. IX), so no draw is rejected.  Every other shape is
    ``rng.standard_gamma(m, size)``.
    """
    if nakagami_draw(m) == "gamma":
        return rng.standard_gamma(m, size)
    power = rng.random(size)
    np.subtract(1.0, power, out=power)
    u = np.empty_like(power) if m > 1 else None
    for _ in range(1, int(m)):
        power *= np.subtract(1.0, rng.random(out=u), out=u)
    return np.negative(np.log(power, out=power), out=power)


def uniform_phase(tau: float, rng: np.random.Generator, size) -> np.ndarray:
    """Draws uniform on [-tau, tau), ``rng.uniform(-tau, tau, size)`` bit for
    bit (numpy forms it as -tau + 2 tau u), in two whole-array operations."""
    draw = rng.random(size)
    draw *= 2.0 * tau
    draw -= tau
    return draw


def nakagami_sample(m: float, zeta: float, rng: np.random.Generator, size) -> np.ndarray:
    """Nakagami-m amplitudes, an array of shape ``size``: ``sqrt(zeta *
    gamma_power(m, rng, size))``.  The power is Gamma(shape m, scale zeta),
    the identity the analytic moments rely on, so E[X^2] = m * zeta; where
    numpy's Gamma sampler draws it, it is ``rng.gamma(m, zeta, size)`` bit
    for bit.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {m}")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    power = gamma_power(m, rng, size)
    power *= zeta
    return np.sqrt(power, out=power)
