"""Estimators applied to the samples a workload run reports.

Every timing, set-up time included, is reported as a trimmed mean: the mean
of the samples after dropping the lowest and highest tenth, and at least
one sample at each end once there are five or more (a campaign run holds
only five or six passes). On the virtual machines this benchmark was tuned
on, noise runs both ways: other tenants slow single vCPUs for seconds to
minutes at a time, so a fixed compute loop ran up to 1.5x faster or
slower. Against two-sided noise the mean is the steadiest estimator (over
ten seeds it beat the median, the fastest half and the minimum on most
metrics); trimming keeps one stalled batch from moving it.
"""

import math
import statistics

# Sample count from which at least one sample is dropped at each end.
MIN_TRIMMED = 5


def trimmed_mean(samples, share=0.1):
    """Mean of `samples` without the lowest and highest `share` of them
    (at least one at each end when share > 0 and there are MIN_TRIMMED or
    more samples)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    cut = int(len(ordered) * share)
    if share > 0 and len(ordered) >= MIN_TRIMMED:
        cut = max(cut, 1)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def summarize(values):
    """Median, quartiles and spread of a metric's values over runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf,
            "n": len(values)}
