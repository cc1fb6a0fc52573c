import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from embryometrics.errors import (
    NegativeProbabilityError,
    NotNormalizedError,
    ValidationError,
)
from embryometrics.model import (
    BinaryMask,
    CandidateKind,
    ConfusionMatrix,
    EmbryoMovie,
    FragmentationScore,
    Frame,
    InstanceCandidate,
    ORDERED_CLASSES,
    SegmentationMap,
    StageClass,
    StageProbabilityMatrix,
    validate_prob_vector,
)

from conftest import disk_mask


class TestStageClass:
    def test_exactly_13_variants(self):
        assert len(StageClass) == 13
        assert len(ORDERED_CLASSES) == 11

    def test_canonical_indices(self):
        assert StageClass.CELL_1 == 0
        assert StageClass.BLASTOCYST == 10
        assert StageClass.EMPTY == 11
        assert StageClass.DEGENERATE == 12

    def test_strict_total_order_on_ordered_classes(self):
        # irreflexive
        for c in ORDERED_CLASSES:
            assert not c < c
        # total: exactly one of <, >, == for every pair
        for a, b in itertools.permutations(ORDERED_CLASSES, 2):
            assert (a < b) != (b < a)
        # transitive
        for a, b, c in itertools.permutations(ORDERED_CLASSES, 3):
            if a < b and b < c:
                assert a < c

    def test_outside_order(self):
        assert not StageClass.EMPTY.is_ordered
        assert not StageClass.DEGENERATE.is_ordered

    def test_cell_counts(self):
        assert StageClass.CELL_1.cell_count == 1
        assert StageClass.CELL_8.cell_count == 8
        assert StageClass.CELL_9_PLUS.cell_count is None
        assert StageClass.MORULA.cell_count is None

    def test_token_round_trip(self):
        for c in StageClass:
            assert StageClass.from_token(c.token) is c
        with pytest.raises(ValidationError):
            StageClass.from_token("16cell")


class TestValidateProbVector:
    def test_one_hot_unchanged(self):
        raw = [1.0] + [0.0] * 12
        out = validate_prob_vector(raw)
        assert out.tolist() == raw

    def test_uniform_accepted(self):
        out = validate_prob_vector([1 / 13] * 13)
        assert abs(float(out.sum()) - 1.0) < 1e-12

    def test_all_zeros_rejected(self):
        with pytest.raises(NotNormalizedError):
            validate_prob_vector([0.0] * 13)

    def test_negative_entry_rejected(self):
        raw = [1.0] * 13
        raw[4] = -1e-6
        with pytest.raises(NegativeProbabilityError):
            validate_prob_vector(raw)

    def test_tiny_negative_clamped(self):
        raw = [0.0] * 13
        raw[0] = 1.0
        raw[1] = -1e-10
        out = validate_prob_vector(raw)
        assert out[1] == 0.0
        assert out.sum() == 1.0

    def test_off_by_more_than_tolerance_rejected(self):
        raw = [0.0] * 13
        raw[0] = 1.0 + 1e-5
        with pytest.raises(NotNormalizedError):
            validate_prob_vector(raw)

    def test_renormalizes_to_exact_unit_sum(self):
        raw = np.full(13, (1.0 + 5e-7) / 13)
        out = validate_prob_vector(raw)
        assert float(out.sum()) == 1.0

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            validate_prob_vector([0.5, 0.5])

    @given(st.lists(st.floats(0.01, 10.0), min_size=13, max_size=13))
    def test_idempotent(self, values):
        raw = np.asarray(values)
        raw = raw / raw.sum()
        once = validate_prob_vector(raw)
        twice = validate_prob_vector(once)
        assert np.array_equal(once, twice)

    def test_result_is_readonly(self):
        out = validate_prob_vector([1.0] + [0.0] * 12)
        with pytest.raises(ValueError):
            out[0] = 0.5


class TestBinaryMask:
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.data(),
    )
    def test_rle_round_trip(self, w, h, data):
        bits = data.draw(
            st.lists(st.booleans(), min_size=w * h, max_size=w * h)
        )
        arr = np.asarray(bits, dtype=bool).reshape(h, w)
        mask = BinaryMask.from_array(arr)
        assert np.array_equal(mask.to_array(), arr)
        again = BinaryMask(width=w, height=h, runs=mask.runs)
        assert np.array_equal(again.to_array(), arr)

    def test_background_first_layout(self):
        arr = np.zeros((2, 3), dtype=bool)
        arr[0, 0] = True
        mask = BinaryMask.from_array(arr)
        # Foreground at flat index 0 means a zero-length background run.
        assert mask.runs == (0, 1, 5)

    def test_all_background(self):
        mask = BinaryMask.from_array(np.zeros((3, 3), dtype=bool))
        assert mask.runs == (9,)
        assert mask.area == 0

    def test_run_sum_must_cover_grid(self):
        with pytest.raises(ValidationError):
            BinaryMask(width=3, height=3, runs=(4, 4))

    def test_non_canonical_zero_run_rejected(self):
        with pytest.raises(ValidationError):
            BinaryMask(width=3, height=3, runs=(4, 0, 5))

    def test_area_and_bbox(self):
        arr = np.zeros((5, 7), dtype=bool)
        arr[1:4, 2:5] = True
        mask = BinaryMask.from_array(arr)
        assert mask.area == 9
        assert mask.tight_bbox() == (2, 1, 3, 3)

    def test_empty_mask_has_no_bbox(self):
        mask = BinaryMask.from_array(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            mask.tight_bbox()


class TestConfusionMatrix:
    def test_identity(self):
        q = ConfusionMatrix.identity()
        assert np.array_equal(q.q, np.eye(13))

    def test_rows_must_be_stochastic(self):
        bad = np.eye(13)
        bad[3, 3] = 0.5
        with pytest.raises(NotNormalizedError):
            ConfusionMatrix(bad)

    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(np.eye(12))

    def test_row_lookup_and_json_rows(self):
        q = ConfusionMatrix.identity()
        assert q.row(StageClass.CELL_3)[int(StageClass.CELL_3)] == 1.0
        rows = q.to_rows()
        assert len(rows) == 13 and len(rows[0]) == 13
        assert ConfusionMatrix.from_rows(rows).q.tolist() == q.q.tolist()


class TestStageProbabilityMatrix:
    def test_basic(self):
        rows = [[1.0] + [0.0] * 12, [0.0, 1.0] + [0.0] * 11]
        m = StageProbabilityMatrix(rows, [0.0, 20.0])
        assert len(m) == 2
        assert m.probs.shape == (2, 13)

    def test_times_strictly_increasing(self):
        rows = [[1.0] + [0.0] * 12] * 2
        with pytest.raises(ValidationError):
            StageProbabilityMatrix(rows, [20.0, 20.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            StageProbabilityMatrix([[1.0] + [0.0] * 12], [0.0, 20.0])

    def test_needs_a_frame(self):
        with pytest.raises(ValidationError):
            StageProbabilityMatrix([], [])


class TestSegmentationMap:
    def test_valid(self):
        m = SegmentationMap(np.zeros((4, 6), dtype=np.uint8))
        assert (m.width, m.height) == (6, 4)

    def test_label_range_enforced(self):
        with pytest.raises(ValidationError):
            SegmentationMap(np.full((2, 2), 4))


class TestInstanceCandidate:
    def test_from_mask(self):
        mask = disk_mask(20, 10, 10, 4)
        c = InstanceCandidate.from_mask(mask, 0.7, 2, CandidateKind.CELL)
        assert c.bbox == mask.tight_bbox()

    def test_from_mask_reads_the_runs_for_the_box_once(self, monkeypatch):
        calls = []
        foreground = BinaryMask._foreground

        def counted(mask):
            calls.append(mask)
            return foreground(mask)

        monkeypatch.setattr(BinaryMask, "_foreground", counted)
        mask = disk_mask(20, 10, 10, 4)
        InstanceCandidate.from_mask(mask, 0.7, 2, CandidateKind.CELL)
        assert calls == [mask]

    def test_bbox_must_be_tight(self):
        mask = disk_mask(20, 10, 10, 4)
        with pytest.raises(ValidationError):
            InstanceCandidate(
                mask=mask, bbox=(0, 0, 20, 20), confidence=0.7, plane=2,
                kind=CandidateKind.CELL,
            )

    def test_confidence_range(self):
        mask = disk_mask(20, 10, 10, 4)
        with pytest.raises(ValidationError):
            InstanceCandidate.from_mask(mask, 1.2, 2, CandidateKind.CELL)

    def test_empty_mask_rejected(self):
        empty = BinaryMask.from_array(np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValidationError):
            InstanceCandidate(
                mask=empty, bbox=(0, 0, 1, 1), confidence=0.5, plane=3,
                kind=CandidateKind.CELL,
            )


class TestMovieTypes:
    def test_fragmentation_score_bounds(self):
        FragmentationScore(0.0)
        FragmentationScore(3.0)
        with pytest.raises(ValidationError):
            FragmentationScore(3.1)
        with pytest.raises(ValidationError):
            FragmentationScore(-0.1)

    def test_frame_needs_seven_planes(self):
        with pytest.raises(ValidationError):
            Frame(time_minutes=0.0, planes=("a", "b", "c"))

    def test_movie_times_strictly_increasing(self):
        planes = tuple(f"p{i}" for i in range(7))
        frames = (
            Frame(time_minutes=0.0, planes=planes),
            Frame(time_minutes=0.0, planes=planes),
        )
        with pytest.raises(ValidationError):
            EmbryoMovie(embryo_id="e", frames=frames)
