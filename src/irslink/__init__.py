"""Performance analysis of a reflective-surface-aided link over Nakagami-m fading.

The SNR law of the truncated-normal model, outage/rate/SER metrics with
high-SNR asymptotics, and a deterministic Monte-Carlo oracle that every
analytic expression is validated against.
"""

__version__ = "0.1.0"

from .channel import (LinkParams, Modulation, SystemConfig, db_to_linear, nakagami_sample,
                      path_loss)
from .cltapprox import (QuantizedWStats, TruncatedNormal, quantized_w_stats, w_mean_var,
                        w_moment, w_stats)
from .errors import ConfigError, IrsLinkError, NumericalConsistencyError
from .metrics import (AsymptoticResult, RateBounds, asymptotic_outage, asymptotic_rate,
                      asymptotic_ser, outage_probability, quantized_control_means,
                      quantized_rate_bounds, rate_bounds, ser_upper_bound)
from .montecarlo import (ControlVariates, Estimate, SimPlan, empirical_ber, empirical_cdf,
                         empirical_outage, empirical_rate, empirical_rate_ratio,
                         simulate_snr_samples)
from .snrdist import SnrCdfParams, envelope_pdf, snr_cdf, snr_pdf
