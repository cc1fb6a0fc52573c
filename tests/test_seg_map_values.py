"""Seg maps compare, hash and copy as values, off their runs.

`==` between two distinct maps used to raise ValueError (an array's
ambiguous truth value) and `hash` TypeError (an unhashable ndarray), both
after decoding a `labels` grid. Every birth route makes maximal runs, so
the shape and runs say which pixels a map holds: equality and hash read
only those, never a grid, and never a held zona box. `copy.deepcopy` and
a pickle round trip used to give writeable run arrays; a copy's runs are
read-only like its source's.
"""

import copy
import pickle

import numpy as np
import pytest

from embryometrics.model import SegmentationMap
from embryometrics.serialize import _loads, canonical_dumps, read_json, seg_map_from_obj, write_json
from embryometrics.serialize import seg_map_to_obj
from embryometrics.synth import SynthConfig, generate_movie


def decoded(seg: SegmentationMap) -> np.ndarray:
    return np.repeat(*seg._runs).reshape(seg.height, seg.width)


def has_grid(seg: SegmentationMap) -> bool:
    return "labels" in vars(seg)


def assert_read_only(seg: SegmentationMap):
    assert not any(arr.flags.writeable for arr in seg._runs)
    if has_grid(seg):
        assert not seg.labels.flags.writeable


@pytest.fixture
def painted() -> SegmentationMap:
    _, truth = generate_movie(SynthConfig(seed=3, frames=2, image_size=64))
    return truth.seg_maps[1]


def routes(painted, tmp_path):
    """The painted map, and the same pixels from a grid, from a file and
    from non-maximal runs in an object."""
    write_json(tmp_path / "seg.json", seg_map_to_obj(painted))
    obj = seg_map_to_obj(painted)
    obj["runs"] = [[v, n] for v, c in obj["runs"] for n in (0, c - c // 2, c // 2)]
    return [
        painted,
        SegmentationMap(decoded(painted)),
        seg_map_from_obj(read_json(tmp_path / "seg.json")),
        seg_map_from_obj(_loads(canonical_dumps(obj))),
    ]


def test_every_route_compares_and_hashes_equal(painted, tmp_path):
    maps = routes(painted, tmp_path)
    # The painter's counts are int32, a grid's int64; they hash alike.
    assert {m._runs[1].dtype for m in maps} == {np.dtype(np.int32), np.dtype(np.int64)}
    for a in maps:
        for b in maps:
            assert a == b and not a != b and hash(a) == hash(b)
    assert len(set(maps)) == 1 and {maps[0]: 1}[maps[-1]] == 1
    assert not any(map(has_grid, maps))


def test_different_pixels_or_shapes_differ():
    grid = np.array([[0, 1, 2], [3, 3, 2]], dtype=np.uint8)
    seg = SegmentationMap(grid)
    changed = grid.copy()
    changed[1, 2] = 1
    # The same runs on a transposed grid hold other pixels.
    other_shape = SegmentationMap(grid.reshape(3, 2))
    for other in (SegmentationMap(changed), other_shape):
        assert seg != other and not seg == other
    assert seg._runs[0].tolist() == other_shape._runs[0].tolist()
    assert hash(seg) != hash(other_shape)
    assert not any(map(has_grid, (seg, other_shape)))


def test_other_types_are_not_equal():
    seg = SegmentationMap([[2]])
    assert seg != np.array([[2]]) and seg != [[2]] and seg != "seg"


def test_a_held_box_takes_no_part(painted):
    plain = SegmentationMap._from_runs(*painted._runs, painted.width, painted.height)
    wrong = SegmentationMap._from_runs(*painted._runs, painted.width, painted.height, (0, 0, 1, 1))
    assert "_zona" in vars(painted) and "_zona" not in vars(plain)
    assert painted == plain == wrong and hash(painted) == hash(plain) == hash(wrong)


CLONES = {"deepcopy": copy.deepcopy, "pickle": lambda m: pickle.loads(pickle.dumps(m))}


@pytest.mark.parametrize("decode", [False, True])
@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_copies_keep_the_runs_read_only(painted, tmp_path, clone, decode):
    for seg in routes(painted, tmp_path):
        if decode:
            seg.labels  # noqa: B018
        twin = clone(seg)
        assert_read_only(twin)
        assert twin == seg and hash(twin) == hash(seg) and has_grid(twin) == decode
        assert vars(twin).keys() == vars(seg).keys()
        assert twin._zona_box() == seg._zona_box()
        with pytest.raises(ValueError):
            twin._runs[1][0] = 0


def test_deepcopy_shares_the_held_state(painted, tmp_path):
    for seg in routes(painted, tmp_path):
        twin = copy.deepcopy(seg)
        assert twin is not seg and all(a is b for a, b in zip(twin._runs, seg._runs))
        assert twin._runs_text is seg._runs_text
