"""ROI windows refuse what is not an integer.

`Roi` used to cast its offsets, side and centre with `int()`, so 2.7
became 2, '7' became 7 and True became 1, and `roi_around`, `center_roi`
and a `PipelineConfig` side of 2.5 passed their fractions on to it. Each is now
refused with a one-line ValidationError (InvalidConfigError for the
config) before any cast. Integral floats and numpy integers are still
read as the ints they hold.
"""

import numpy as np
import pytest

from embryometrics.errors import InvalidConfigError
from embryometrics.geometry import Roi, center_roi, roi_around
from embryometrics.pipeline import PipelineConfig

from test_integer_fields import NOT_INTEGERS, assert_refused

FIELDS = dict(x=2, y=0, side=10, center=(5, 7))


def roi(**changes) -> Roi:
    return Roi(**{**FIELDS, **changes})


class TestRoi:
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    @pytest.mark.parametrize("field", ["x", "y", "side", "cx", "cy"])
    def test_fields(self, field, bad):
        if field in ("cx", "cy"):
            center = (bad, 7) if field == "cx" else (5, bad)
            make = lambda: roi(center=center)  # noqa: E731
        else:
            make = lambda: roi(**{field: bad})  # noqa: E731
        assert_refused(make, f"ROI value {bad!r} is not an integer")

    def test_fractions_no_longer_truncate(self):
        # Truncated, this was Roi(2, 0, 10, (5, 7)).
        assert_refused(lambda: Roi(2.7, 0, 10.9, (5.5, "7")), "ROI value 2.7 is not an integer")
        # Read as an int, this was Roi(1, 0, 10, (5, 5)).
        assert_refused(lambda: Roi(True, 0, 10, (5, 5)), "ROI value True is not an integer")

    @pytest.mark.parametrize("center", [(5,), (5, 7, 9)])
    def test_center_is_a_pair(self, center):
        assert_refused(lambda: roi(center=center), "ROI center must be an (x, y) pair")

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        r = Roi(2.0, np.int64(0), np.int32(10), (5.0, np.uint16(7)))
        assert r == roi() and hash(r) == hash(roi())
        assert all(type(v) is int for v in (r.x, r.y, r.side, *r.center))


class TestWindows:
    def test_roi_around_refuses_a_fractional_side(self):
        assert_refused(lambda: roi_around((100, 100), 10.5, 500, 500), "ROI value 10.5 is not an integer")

    def test_roi_around_refuses_a_fractional_centre(self):
        assert_refused(lambda: roi_around((100.5, 100), 10, 500, 500), "ROI value 100.5 is not an integer")
        assert_refused(lambda: roi_around(("7", 100), 10, 500, 500), "ROI value '7' is not an integer")

    def test_center_roi_refuses_a_fractional_side(self):
        assert_refused(lambda: center_roi(500, 500, 328.9), "ROI value 328.9 is not an integer")

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        expected = roi_around((100, 100), 10, 500, 500)
        assert roi_around((np.int64(100), 100.0), np.int32(10), 500, 500) == expected
        assert center_roi(500, 500, 328.0) == center_roi(500, 500, 328)


class TestPipelineConfig:
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_roi_side(self, bad):
        with pytest.raises(InvalidConfigError) as info:
            PipelineConfig(roi_side=bad)
        assert str(info.value) == f"roi_side {bad!r} is not an integer"

    def test_fraction_refused_at_construction(self):
        # It used to pass here and truncate to a 2 px window at run time.
        with pytest.raises(InvalidConfigError):
            PipelineConfig(roi_side=2.5)

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        for side in (48.0, np.int64(48), np.uint8(48)):
            config = PipelineConfig(roi_side=side)
            assert config == PipelineConfig(roi_side=48) and type(config.roi_side) is int

    def test_non_positive_side_still_refused(self):
        for side in (0, -1, -2.0):
            with pytest.raises(InvalidConfigError, match="roi_side must be positive"):
                PipelineConfig(roi_side=side)
