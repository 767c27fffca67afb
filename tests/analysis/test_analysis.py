"""Distribution and curve analysis helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommunicationFootprint, MissCurve, cumulative_share
from repro.errors import AnalysisError
from repro.memsys.multisim import MissCurvePoint


def test_cumulative_share_basic():
    assert cumulative_share([6, 3, 1]) == [0.6, 0.9, 1.0]
    assert cumulative_share([]) == []
    assert cumulative_share([0, 0]) == [0.0, 0.0]
    with pytest.raises(AnalysisError):
        cumulative_share([-1])


@settings(max_examples=50, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_cumulative_share_properties(counts):
    shares = cumulative_share(counts)
    assert len(shares) == len(counts)
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
    if sum(counts) > 0:
        assert shares[-1] == pytest.approx(1.0)


def make_footprint() -> CommunicationFootprint:
    return CommunicationFootprint(
        c2c_by_line={1: 50, 2: 30, 3: 15, 4: 5}, touched_lines=1000
    )


def test_footprint_stats():
    fp = make_footprint()
    assert fp.total_transfers == 100
    assert fp.hottest_line_share() == pytest.approx(0.5)
    assert fp.communicating_fraction == pytest.approx(0.004)
    assert fp.share_from_top_fraction(0.001) == pytest.approx(0.5)
    assert fp.lines_for_share(0.79) == 2
    assert fp.lines_for_share(0.81) == 3
    assert fp.lines_for_share(1.0) == 4


def test_footprint_cdfs():
    fp = make_footprint()
    pct = fp.cdf_percent_of_touched()
    assert pct[0] == (pytest.approx(0.1), pytest.approx(0.5))
    assert pct[-1][0] == 100.0
    absolute = fp.cdf_absolute_lines()
    assert absolute == [
        (1, pytest.approx(0.5)),
        (2, pytest.approx(0.8)),
        (3, pytest.approx(0.95)),
        (4, pytest.approx(1.0)),
    ]


def test_lines_for_share_exact_boundary_no_float_drift():
    """share=1.0 must resolve exactly even when 1/n is not a binary float.

    Seven equal counts: accumulating 1/7 seven times in floating point
    lands at 0.9999999999999998, which would push ``share=1.0`` past the
    end of the CDF; the integer running sum makes the last share exactly
    1.0.
    """
    fp = CommunicationFootprint(
        c2c_by_line={line: 1 for line in range(1, 8)}, touched_lines=10
    )
    assert fp.lines_for_share(1.0) == 7
    assert fp.share_from_top_fraction(1.0) == 1.0
    assert fp.cdf_absolute_lines()[-1] == (7, 1.0)


def test_lines_for_share_zero_transfers():
    fp = CommunicationFootprint(c2c_by_line={1: 0, 2: 0}, touched_lines=5)
    # No line can ever reach the requested share; report the whole set.
    assert fp.lines_for_share(0.5) == 2
    assert fp.share_from_top_fraction(0.5) == 0.0


def test_footprint_validation():
    with pytest.raises(AnalysisError):
        CommunicationFootprint(c2c_by_line={1: 1, 2: 1}, touched_lines=1)
    fp = make_footprint()
    with pytest.raises(AnalysisError):
        fp.share_from_top_fraction(0.0)
    with pytest.raises(AnalysisError):
        fp.lines_for_share(0.0)


def test_empty_footprint():
    fp = CommunicationFootprint(c2c_by_line={}, touched_lines=0)
    assert fp.hottest_line_share() == 0.0
    assert fp.communicating_fraction == 0.0
    assert fp.cdf_percent_of_touched() == []


def curve_from(mpkis) -> MissCurve:
    points = [
        MissCurvePoint(size=1024 * (2**i), accesses=100, misses=0, mpki=m)
        for i, m in enumerate(mpkis)
    ]
    return MissCurve.from_points("t", points)


def test_miss_curve_monotonic_check():
    assert curve_from([5.0, 3.0, 1.0]).is_monotonic_nonincreasing()
    assert not curve_from([5.0, 6.0, 1.0]).is_monotonic_nonincreasing()
    assert curve_from([5.0, 5.04, 1.0]).is_monotonic_nonincreasing(tolerance=0.05)


def test_miss_curve_knee():
    curve = curve_from([5.0, 2.0, 0.5])
    assert curve.knee_size(1.0) == 4096
    assert curve.knee_size(0.1) is None


def test_miss_curve_lookup_and_validation():
    curve = curve_from([5.0, 2.0])
    assert curve.mpki_at(1024) == 5.0
    with pytest.raises(AnalysisError):
        curve.mpki_at(999)
    with pytest.raises(AnalysisError):
        MissCurve(label="x", points=())
    assert "misses/1000" in curve.describe()
