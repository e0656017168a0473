"""Binary tensor file format: byte layout, round-trips, malformed inputs."""

import json
import struct

import numpy as np
import pytest

from vnact.errors import FormatError
from vnact.tnsf import load_bundle, read_tnsf, save_bundle, write_tnsf


def test_round_trip_f64_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(3, 4, 5))
    path = tmp_path / "a.tnsf"
    write_tnsf(path, arr)
    back = read_tnsf(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_f32_preserves_dtype(tmp_path):
    arr = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "a.tnsf"
    write_tnsf(path, arr)
    back = read_tnsf(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_round_trip_rank0_and_rank1(tmp_path):
    for arr in (np.array(3.25), np.array([1.0, -2.0, 0.5])):
        path = tmp_path / "t.tnsf"
        write_tnsf(path, arr)
        back = read_tnsf(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_non_float_input_is_stored_as_f64(tmp_path):
    path = tmp_path / "i.tnsf"
    write_tnsf(path, np.arange(6, dtype=np.int64).reshape(2, 3))
    back = read_tnsf(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, np.arange(6.0).reshape(2, 3))


def test_byte_layout_little_endian(tmp_path):
    arr = np.array([[1.5, -2.0]], dtype=np.float64)
    path = tmp_path / "b.tnsf"
    write_tnsf(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"TNSF"
    assert blob[4] == 1  # version
    assert blob[5] == 1  # dtype code: f64
    assert struct.unpack("<H", blob[6:8])[0] == 2  # rank
    assert struct.unpack("<2Q", blob[8:24]) == (1, 2)
    payload = np.frombuffer(blob[24:], dtype="<f8")
    assert np.array_equal(payload, np.array([1.5, -2.0]))


def test_handwritten_file_parses(tmp_path):
    # Assemble a file byte-by-byte to pin the layout independent of the writer.
    values = np.array([0.25, 0.5, 0.75], dtype="<f4")
    blob = b"TNSF" + bytes([1, 0]) + struct.pack("<H", 1) + struct.pack("<1Q", 3) + values.tobytes()
    path = tmp_path / "hand.tnsf"
    path.write_bytes(blob)
    back = read_tnsf(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, values)


@pytest.mark.parametrize(
    "mutate, what",
    [
        (lambda b: b[:6], "truncated header"),
        (lambda b: b"XNSF" + b[4:], "bad magic"),
        (lambda b: b[:4] + bytes([9]) + b[5:], "bad version"),
        (lambda b: b[:5] + bytes([7]) + b[6:], "unknown dtype"),
        (lambda b: b[:12], "truncated extents"),
        (lambda b: b[:-4], "short payload"),
        (lambda b: b + b"\x00" * 8, "long payload"),
    ],
)
def test_malformed_files_raise_format_error(tmp_path, mutate, what):
    path = tmp_path / "good.tnsf"
    write_tnsf(path, np.ones((2, 3)))
    bad = tmp_path / "bad.tnsf"
    bad.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(FormatError):
        read_tnsf(bad)


def test_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "backbone.stage0.kernel": rng.normal(size=(4, 3, 3, 3)),
        "head.w": rng.normal(size=(16, 6)),
        "head.b": np.zeros(6),
    }
    save_bundle(tmp_path / "params", tensors)
    back = load_bundle(tmp_path / "params")
    assert sorted(back) == sorted(tensors)
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])


def test_bundle_manifest_is_sorted_json(tmp_path):
    save_bundle(tmp_path / "p", {"b": np.ones(1), "a": np.zeros(1)})
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["format"] == "tnsf-bundle"
    assert list(manifest["tensors"]) == ["a", "b"]


def test_bundle_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FormatError):
        load_bundle(tmp_path / "empty")


def test_bundle_bad_manifest_contents(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "manifest.json").write_text("not json {")
    with pytest.raises(FormatError):
        load_bundle(d)
    (d / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(FormatError):
        load_bundle(d)
    (d / "manifest.json").write_text(json.dumps({"format": "tnsf-bundle", "tensors": [1]}))
    with pytest.raises(FormatError):
        load_bundle(d)


def test_bundle_entry_naming_missing_file(tmp_path):
    save_bundle(tmp_path / "p", {"a": np.zeros(2)})
    (tmp_path / "p" / "a.tnsf").unlink()
    with pytest.raises(FormatError, match="missing file"):
        load_bundle(tmp_path / "p")


@pytest.mark.parametrize("escape", ["../outside.tnsf", "sub/../../outside.tnsf", "ABSOLUTE"])
def test_bundle_rejects_entries_outside_the_directory(tmp_path, escape):
    write_tnsf(tmp_path / "outside.tnsf", np.ones(3))
    d = tmp_path / "p"
    d.mkdir()
    if escape == "ABSOLUTE":
        escape = str(tmp_path / "outside.tnsf")
    (d / "manifest.json").write_text(json.dumps(
        {"format": "tnsf-bundle", "version": 1, "tensors": {"a": escape}}))
    with pytest.raises(FormatError, match="outside the bundle"):
        load_bundle(d)
