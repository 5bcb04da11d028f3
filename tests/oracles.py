"""Independent samplers the tests check the library against."""

import numpy as np

from irslink.cltapprox import TruncatedNormal


def truncated_normal_sample(tn: TruncatedNormal, rng: np.random.Generator, size: int):
    """Rejection sampler of the normal truncated to [0, inf); fine while z_bar < 0."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        draw = rng.normal(tn.mu_bar, tn.sigma_bar, int(need * 1.6) + 16)
        draw = draw[draw >= 0.0][:need]
        out[filled:filled + draw.size] = draw
        filled += draw.size
    return out
