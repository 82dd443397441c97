"""Checkpoint round-trip and format validation tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazescore.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "embed/table": rng.normal(size=(7, 4)),
        "conv/w": rng.normal(size=(3, 4, 5)) * 1e-8,
        "head/bias": np.array(0.123456789012345678),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == np.asarray(arr).shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_round_trip_extreme_values(tmp_path):
    arrays = {"w": np.array([1e-300, 1e300, -0.0, np.pi, 2.0 ** -52])}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays)
    np.testing.assert_array_equal(load_checkpoint(path)["w"], arrays["w"])


def test_header_version_is_checked(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("gazescore-checkpoint 99\nparam w float64 1 1\n0\n")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_foreign_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("something else entirely\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_values_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text("gazescore-checkpoint 1\nparam w float64 1 3\n1 2\n")
    with pytest.raises(CheckpointError, match="expected 3"):
        load_checkpoint(path)


def test_duplicate_parameter_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_text(
        "gazescore-checkpoint 1\nparam w float64 1 1\n1\nparam w float64 1 1\n2\n")
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def test_whitespace_in_name_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "m.ckpt", {"bad name": np.zeros(1)})


def test_file_is_human_readable(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.array([[1.5, -2.0]])})
    text = path.read_text()
    assert text.splitlines()[0] == "gazescore-checkpoint 1"
    assert "param w float64 2 1 2" in text
    assert "1.5" in text and "-2" in text


# any name without whitespace; bit-exact for every non-nan float, extremes included
_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda name: not any(ch.isspace() for ch in name))
_ARRAYS = st.sampled_from([np.float64, np.float32]).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, width=np.dtype(dtype).itemsize * 8)))


@given(st.dictionaries(_NAMES, _ARRAYS, max_size=4))
@example({"scalar": np.array(-0.0), "empty": np.zeros((0, 3)),
          "cube": np.array([np.finfo(np.float64).max, -np.finfo(np.float64).tiny, 5e-324,
                            -0.0, np.inf, -np.inf]).reshape(1, 2, 3)})
@settings(max_examples=100, deadline=None)
def test_any_saved_arrays_load_back_bit_for_bit(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name, array in arrays.items():
        assert loaded[name].dtype == array.dtype
        assert loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()


@pytest.mark.parametrize("body, message", [
    ("param w float64\n1\n", "malformed parameter header: 'param w float64'"),
    ("param w float64 2 3\n1 2 3\n", "dimension count mismatch in: 'param w float64 2 3'"),
    ("\n1 2\nparam w float64 1 2\n1 2\n", "values before any parameter header"),
    # blocks are checked in file order: the first fault is the one reported
    ("param w float64 1 3\n1 2\nparam v float64\n", "parameter 'w' has 2 values, expected 3"),
    ("param w bogus 1 1\n1\n", "malformed parameter header: 'param w bogus 1 1'"),
    ("param w float64 x 1\n1\n", "malformed parameter header: 'param w float64 x 1'"),
    ("param w float64 1 1.5\n1\n", "malformed parameter header: 'param w float64 1 1.5'"),
    ("param w float64 2 -1 -1\n1\n", "malformed parameter header: 'param w float64 2 -1 -1'"),
    ("param w V8 1 1\n1\n", "malformed parameter header: 'param w V8 1 1'"),
    ("param w U5 1 1\n1\n", "malformed parameter header: 'param w U5 1 1'"),
], ids=["malformed_param_line", "dimension_count", "values_before_header", "first_fault",
        "dtype", "ndim", "dim", "negative_dim", "void_dtype", "str_dtype"])
def test_malformed_file_names_its_first_fault(tmp_path, body, message):
    path = tmp_path / "m.ckpt"
    path.write_text("gazescore-checkpoint 1\n" + body)
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(path)
    assert str(raised.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    ("gazescore-checkpoint x\n", ": unsupported version x, expected 1"),
    ("gazescore-checkpoint 1\nparam w float64 1 2\n1 zz\n",
     ":3: could not convert string to float: 'zz'"),
], ids=["version", "value"])
def test_an_unparsable_number_raises_a_checkpoint_error_naming_the_file(tmp_path, text, message):
    path = tmp_path / "m.ckpt"
    path.write_text(text)
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(path)
    assert str(raised.value) == f"{path}{message}"
