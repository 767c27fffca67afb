"""Analysis helpers: communication distributions and miss curves."""

from repro.analysis.cdf import CommunicationFootprint, cumulative_share
from repro.analysis.curves import MissCurve

__all__ = [
    "CommunicationFootprint",
    "cumulative_share",
    "MissCurve",
]
