import numpy as np
import pytest
from hypothesis import settings

from embryometrics.model import BinaryMask, CandidateKind, InstanceCandidate


def disk_array(size: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.ogrid[:size, :size]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def disk_mask(size: int, cx: float, cy: float, r: float) -> BinaryMask:
    return BinaryMask.from_array(disk_array(size, cx, cy, r))


def candidate(
    mask: BinaryMask,
    confidence: float,
    plane: int = 3,
    kind: CandidateKind = CandidateKind.CELL,
) -> InstanceCandidate:
    return InstanceCandidate.from_mask(mask, confidence, plane, kind)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_prob_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows of independent positive values normalized to sum 1."""
    raw = rng.random((n, 13)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


# A longer, reproducible run: `pytest --hypothesis-profile=ci`. Tests that
# set their own `max_examples` keep it; the default profile is unchanged.
settings.register_profile("ci", max_examples=500, derandomize=True)
