"""Integer fields of the model and synth constructors refuse what is not
an integer.

`int()` would truncate 2.9 to 2, read '2' and True as 2 and 1, and raise
a bare ValueError on NaN and OverflowError on an infinity; each is
refused with a one-line ValidationError (InvalidConfigError for a synth
config) before any cast. Integral floats and numpy integers are still
read as the ints they hold.
"""

import numpy as np
import pytest

from embryometrics.errors import InvalidConfigError, ValidationError
from embryometrics.model import BinaryMask, CandidateKind, EmbryoMovie, Frame, InstanceCandidate
from embryometrics.synth import SynthConfig

NOT_INTEGERS = [0.9, 2.0000001, "2", float("nan"), float("inf"), -float("inf"), np.float64(1.5),
                True, False, np.True_]

# A 2x2 square at (3, 3) on a 10x10 grid.
SQUARE = BinaryMask(10, 10, (33, 2, 8, 2, 55))


def candidate(bbox=(3, 3, 2, 2), plane=2) -> InstanceCandidate:
    return InstanceCandidate(SQUARE, bbox, 0.5, plane, CandidateKind.CELL)


def assert_refused(make, text):
    with pytest.raises(ValidationError) as info:
        make()
    assert type(info.value) is ValidationError and str(info.value) == text


class TestBinaryMask:
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_runs(self, bad):
        assert_refused(lambda: BinaryMask(2, 1, (0, bad)), f"mask run {bad!r} is not an integer")

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_dimensions(self, bad):
        text = f"mask dimension {bad!r} is not an integer"
        assert_refused(lambda: BinaryMask(bad, 1, (2,)), text)
        assert_refused(lambda: BinaryMask(1, bad, (2,)), text)

    def test_fractions_no_longer_truncate(self):
        assert_refused(lambda: BinaryMask(2, 1, (0.9, 2.9)), "mask run 0.9 is not an integer")
        # Read as ints, these runs cover the 2x1 grid.
        assert_refused(lambda: BinaryMask(2, 1, (True, True)), "mask run True is not an integer")
        # 2.5 x 2 = 5 pixels used to pass as a 2-wide mask.
        assert_refused(lambda: BinaryMask(2.5, 2, (5,)), "mask dimension 2.5 is not an integer")

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        for mask in (
            BinaryMask(2.0, 1, (0, 2.0)),
            BinaryMask(np.int32(2), np.int64(1), (np.int64(0), np.uint8(2))),
            BinaryMask(2, 1, np.array([0, 2])),
        ):
            assert mask == BinaryMask(2, 1, (0, 2))
            assert all(type(v) is int for v in (mask.width, mask.height, *mask.runs))


class TestInstanceCandidate:
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_bbox(self, bad):
        text = f"bbox value {bad!r} is not an integer"
        assert_refused(lambda: candidate(bbox=(3, 3, bad, 2)), text)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_plane(self, bad):
        assert_refused(lambda: candidate(plane=bad), f"plane index {bad!r} is not an integer")

    def test_fractions_no_longer_truncate(self):
        # Truncated, this bbox is the tight one and the plane is 2.
        text = "bbox value 3.7 is not an integer"
        assert_refused(lambda: candidate(bbox=(3.7, 3.7, 2.7, 2.7)), text)
        assert_refused(lambda: candidate(plane=2.9), "plane index 2.9 is not an integer")

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        c = candidate(bbox=(3.0, np.int64(3), np.int32(2), 2), plane=np.int64(2))
        assert c == candidate() and c.bbox == (3, 3, 2, 2) and c.plane == 2
        assert all(type(v) is int for v in (*c.bbox, c.plane))


class TestSynthConfig:
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    @pytest.mark.parametrize("field", ["seed", "frames", "image_size"])
    def test_fields(self, field, bad):
        with pytest.raises(InvalidConfigError) as info:
            SynthConfig(**{field: bad})
        assert str(info.value) == f"{field} {bad!r} is not an integer"

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_dwell_ranges(self, bad):
        with pytest.raises(InvalidConfigError) as info:
            SynthConfig(dwell_ranges=((2, bad),) * 11)
        assert str(info.value) == f"dwell range bound {bad!r} is not an integer"

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        config = SynthConfig(seed=np.uint8(3), frames=6.0, image_size=np.int64(64),
                             dwell_ranges=((1.0, np.int32(2)),) * 11)
        assert config == SynthConfig(seed=3, frames=6, image_size=64, dwell_ranges=((1, 2),) * 11)
        values = (config.seed, config.frames, config.image_size, *config.dwell_ranges[0])
        assert all(type(v) is int for v in values)


class TestEmbryoMovie:
    FRAMES = (Frame(0.0, ("p",) * 7),)

    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_image_size(self, bad):
        text = f"image_size {bad!r} is not an integer"
        assert_refused(lambda: EmbryoMovie("e", self.FRAMES, image_size=bad), text)

    def test_integral_floats_and_numpy_integers_are_read_as_ints(self):
        for size in (64.0, np.int64(64)):
            movie = EmbryoMovie("e", self.FRAMES, image_size=size)
            assert movie == EmbryoMovie("e", self.FRAMES, image_size=64)
            assert type(movie.image_size) is int
