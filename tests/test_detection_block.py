"""`metrics.detection_block` against the two-pass form it replaced.

The block now takes its P/R operating point and area ratios from the
IoU matrices its mAP was computed on. `two_pass_block` below is the old
form, kept as the reference: mAP through `mean_average_precision`, then
every frame matched again through `match_instances`. Both must give the
same block, float for float.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from embryometrics.errors import NoTruthsError
from embryometrics.metrics import (
    AREA_RATIO_EPSILON,
    AreaRatioStats,
    DetectionBlock,
    area_ratio_stats,
    detection_block,
    match_instances,
    mean_average_precision,
)

from conftest import candidate, disk_mask

SIZE = 40


def two_pass_block(preds_per_frame, truths_per_frame, threshold):
    n_preds = sum(len(p) for p in preds_per_frame)
    n_truths = sum(len(t) for t in truths_per_frame)
    if n_truths == 0 and n_preds == 0:
        return None
    try:
        mean_ap = mean_average_precision(preds_per_frame, truths_per_frame)
    except NoTruthsError:
        return None
    n_matched = 0
    ratios = []
    for preds, truths in zip(preds_per_frame, truths_per_frame):
        match = match_instances(preds, truths, threshold)
        n_matched += match.n_matched
        if match.n_matched:
            ratios.extend(area_ratio_stats(match, preds, truths).ratios)
    ratio_mean = within = None
    if ratios:
        stats = AreaRatioStats(ratios=tuple(ratios))
        ratio_mean = stats.mean
        within = stats.fraction_within(AREA_RATIO_EPSILON)
    return DetectionBlock(
        precision=n_matched / n_preds if n_preds > 0 else None,
        recall=n_matched / n_truths if n_truths > 0 else None,
        mean_ap=mean_ap,
        n_predictions=n_preds,
        n_truths=n_truths,
        n_matched=n_matched,
        area_ratio_mean=ratio_mean,
        area_ratio_fraction_within=within,
    )


# A radius of 1 or more keeps the centre pixel, so no mask is empty.
circles = st.tuples(st.floats(0, SIZE - 1), st.floats(0, SIZE - 1), st.floats(1, 12))
# Ties in confidence exercise the stable order.
confidences = st.sampled_from([0.1, 0.5, 0.5, 0.9, 0.99])


@st.composite
def frames(draw):
    """Truth disks, and predictions that are fresh disks or truths moved
    and resized a little, so that many pairs overlap."""
    truths = draw(st.lists(circles, max_size=4))
    preds = []
    for _ in range(draw(st.integers(0, 4))):
        if truths and draw(st.booleans()):
            x, y, r = draw(st.sampled_from(truths))
            d = draw(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)))
            circle = (min(max(x + d[0], 0), SIZE - 1), min(max(y + d[1], 0), SIZE - 1),
                      max(r + d[2], 1))
        else:
            circle = draw(circles)
        preds.append(candidate(disk_mask(SIZE, *circle), draw(confidences)))
    return preds, [disk_mask(SIZE, *c) for c in truths]


@settings(max_examples=150, deadline=None)
@given(movie=st.lists(frames(), max_size=5), threshold=st.sampled_from([0.1, 0.5, 0.75]))
def test_one_pass_block_equals_two_pass_block(movie, threshold):
    preds = [p for p, _ in movie]
    truths = [t for _, t in movie]
    assert detection_block(preds, truths, threshold) == two_pass_block(preds, truths, threshold)
