"""Channel parameterization: Nakagami-m legs, log-distance path loss, sampling.

A link leg is described by its Nakagami shape ``m`` and large-scale linear
gain ``zeta``; the spread parameter is always the derived product
``kappa = m * zeta`` and is never entered independently.  Amplitudes are
sampled as the root of ``zeta`` times a unit-scale Gamma(m) power
(:func:`nakagami_sample`), so the second moment of the amplitude equals
``kappa`` exactly.

This module is the one uniform source of the Monte-Carlo streams.  Every
uniform is a 32-bit half of a raw word of the generator's bit generator:
each word gives its low, then its high half, and each half x, with bit 0
set, is the uniform x 2**-32 on the midpoints of a 2**-31 grid, strictly
inside (0, 1).  A draw of n values takes its uniforms in whole blocks of
ceil(n / 2) words, one block per component:

- an integer shape m up to ``ERLANG_MAX_SHAPE`` draws the power as -log of
  the product of m such blocks (an Erlang draw), holding the float64
  product and one block of words, half its size;
- :func:`uniform_phase` draws one block;
- every other shape takes numpy's Gamma sampler, ``rng.standard_gamma``.
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
    "gamma_power_product",
    "uniform_phase",
    "nakagami_sample",
    "ERLANG_MAX_SHAPE",
]

# The largest integer shape drawn as -log of a product of uniforms: up to
# it, that draw is faster than ``rng.standard_gamma``'s rejection sampler
# (CHANGES.md has the per-shape timing).  The MC streams depend on it.
ERLANG_MAX_SHAPE = 8


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


def _uniform_halves(rng: np.random.Generator, size) -> np.ndarray:
    """The next n uniforms of ``rng``'s stream, n the element count of
    ``size``, as a flat array of odd uint32 halves.

    ceil(n / 2) raw words of the bit generator, each split into its low, then
    its high 32 bits (on any host), with bit 0 set: a half x is the uniform
    x 2**-32 on the midpoints of a 2**-31 grid, strictly inside (0, 1).  The
    halves are the words' own buffer; an odd n drops the last high half.
    """
    count = math.prod(size) if np.iterable(size) else size  # np.prod takes ~6 us a call
    words = rng.bit_generator.random_raw(-(-count // 2))
    halves = words.astype("<u8", copy=False).view("<u4")[:count]
    halves |= 1
    return halves


def _signed_power(m: float, rng: np.random.Generator, size) -> tuple[np.ndarray, float]:
    """``(draws, sign)`` with ``sign * draws`` unit-scale Gamma(m) powers of
    shape ``size``, so a caller folds the sign into a scale or a product it
    forms anyway.

    An integer shape 1 <= m <= ``ERLANG_MAX_SHAPE`` returns log(U_1 ... U_m)
    <= 0 with sign -1, an Erlang draw: a sum of m unit exponentials -log U_j
    is Gamma(m, 1) exactly (Devroye, *Non-Uniform Random Variate Generation*,
    1986, ch. IX), so no draw is rejected.  Each U_j is a whole block of
    :func:`_uniform_halves` of the size, drawn after U_{j-1} (a
    component-major stream).  The halves are multiplied left to right
    straight into the float64 product, numpy casting them inside the loop,
    and the product's whole scale 2**(-32 m) enters with the first
    component; every partial product stays at or above 2**(-32 m), far
    inside the normal range, so that scale is exact.  Then one log: the
    product is never formed as a constant minus a log, which would lose the
    relative accuracy of small powers.  Every other shape is
    ``rng.standard_gamma(m, size)`` with sign +1.
    """
    if nakagami_draw(m) == "gamma":
        return rng.standard_gamma(m, size), 1.0
    power = np.multiply(_uniform_halves(rng, size), 2.0 ** (-32 * int(m)))
    for _ in range(1, int(m)):
        power *= _uniform_halves(rng, size)
    return np.log(power, out=power).reshape(size), -1.0


def gamma_power_product(m_g: float, m_h: float, rng: np.random.Generator,
                        size) -> np.ndarray:
    """Products P_g P_h of unit-scale Gamma powers of shapes ``m_g``, then
    ``m_h``, each drawn whole by :func:`_signed_power`, one after the other.
    Two Erlang log-products multiply directly, (-P_g)(-P_h), which is P_g P_h
    exactly; only a mixed pair takes a negation."""
    prod, sign = _signed_power(m_g, rng, size)
    other, other_sign = _signed_power(m_h, rng, size)
    prod *= other
    return prod if sign == other_sign else np.negative(prod, out=prod)


def uniform_phase(tau: float, rng: np.random.Generator, size) -> np.ndarray:
    """Draws uniform on (-tau, tau), an array of shape ``size``: (x 2**-31 - 1)
    tau of the next :func:`_uniform_halves` x.

    x - 2**31 is an odd integer of magnitude below 2**31 and tau 2**-31 is
    exact, so (x - 2**31) (tau 2**-31) is that value with its one rounding.
    Scaling tau by a power of two therefore scales every draw exactly, and
    the draws lie strictly inside (-tau, tau)."""
    draw = np.subtract(_uniform_halves(rng, size), 2.0**31)
    draw *= tau * 2.0**-31
    return draw.reshape(size)


def nakagami_sample(m: float, zeta: float, rng: np.random.Generator, size) -> np.ndarray:
    """Nakagami-m amplitudes, an array of shape ``size``: sqrt(zeta P) of the
    unit-scale Gamma(m) powers P of :func:`_signed_power`, its sign folded into
    the scale.  The power is Gamma(shape m, scale zeta), the identity the
    analytic moments rely on, so E[X^2] = m * zeta; where numpy's Gamma sampler
    draws it, it is ``rng.gamma(m, zeta, size)`` bit for bit.
    """
    if m < 0.5:
        raise ValueError(f"Nakagami shape must satisfy m >= 0.5, got {m}")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    power, sign = _signed_power(m, rng, size)
    power *= sign * zeta
    return np.sqrt(power, out=power)
