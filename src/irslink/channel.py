"""Channel parameterization: Nakagami-m legs, log-distance path loss, sampling.

A link leg is described by its Nakagami shape ``m`` and large-scale linear
gain ``zeta``; the spread parameter is always the derived product
``kappa = m * zeta`` and is never entered independently.  Amplitudes are
sampled as the square root of a Gamma variate with shape ``m`` and scale
``zeta``, so the second moment of the amplitude equals ``kappa`` exactly.
An integer shape up to ``ERLANG_MAX_SHAPE`` draws that Gamma power as
-log of a product of ``m`` uniforms (an Erlang draw); every other shape
takes numpy's Gamma sampler (see :func:`nakagami_sample`).
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
    "nakagami_sample",
    "ERLANG_MAX_SHAPE",
]

# The largest integer shape drawn as -log of a product of uniforms: up to
# it, that draw is faster than ``rng.standard_gamma``'s rejection sampler
# (CHANGES.md has the per-shape timing).  The MC streams depend on it.
ERLANG_MAX_SHAPE = 4

# Elements per block of an Erlang draw: the uniform scratch is at most
# ERLANG_MAX_SHAPE x 8192 float64s, 256 KB, and stays in cache while its
# products, logs and roots are formed.  Outputs do not depend on it.
_ERLANG_BLOCK = 8192


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


def nakagami_sample(m: float, zeta: float, rng: np.random.Generator, size) -> np.ndarray:
    """Nakagami-m amplitude draws with E[X^2] = m * zeta, an array of shape ``size``.

    The square of the amplitude, the power, is Gamma(shape m, scale zeta),
    which is the Gamma identity the analytic moments rely on.

    - An integer shape 1 <= m <= ``ERLANG_MAX_SHAPE`` (``nakagami_draw(m) ==
      "erlang"``) draws the power as -zeta log(U_1 ... U_m), with the U_j
      uniform on (0, 1] as ``1 - rng.random()`` and the product taken left
      to right.  Each -log U_j is a unit exponential and a sum of m
      independent ones is Gamma(m, 1) exactly (Devroye, *Non-Uniform Random
      Variate Generation*, 1986, ch. IX), so the draw is exact in
      distribution and needs no rejection.  The stream is element-major:
      each element takes m consecutive uniforms, which is the stream of
      ``rng.random(size + (m,))``.  The draw runs over blocks of
      ``_ERLANG_BLOCK`` elements, so its scratch stays in cache; the block
      changes no bit.  This is not ``rng.gamma``'s stream.
    - Every other shape draws a standard Gamma variate and scales it by
      zeta, which is how numpy forms ``rng.gamma(m, zeta)``: that stream is
      ``rng.gamma``'s bit for bit.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {m}")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if nakagami_draw(m) == "gamma":
        power = rng.standard_gamma(m, size)
        power *= zeta
        return np.sqrt(power, out=power)
    k = int(m)
    power = np.empty(size)
    flat = power.reshape(-1)
    uniforms = np.empty((min(flat.size, _ERLANG_BLOCK), k))
    for start in range(0, flat.size, _ERLANG_BLOCK):
        block = flat[start:start + _ERLANG_BLOCK]
        u = uniforms[:block.size]
        rng.random(out=u)
        np.subtract(1.0, u, out=u)
        np.copyto(block, u[:, 0])
        for j in range(1, k):
            block *= u[:, j]
        np.log(block, out=block)
        block *= -zeta
        np.sqrt(block, out=block)
    return power
