"""Tests for the binary operator container."""

import numpy as np
import pytest
import scipy.sparse as sp

from hypoco.container import MAGIC, load_container, save_container
from hypoco.errors import ConfigError


def test_round_trip_dense_arrays(tmp_path):
    path = str(tmp_path / "dense.hypo")
    rng = np.random.default_rng(0)
    arrays = {
        "floats": rng.standard_normal((7, 3)),
        "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
        "cube": rng.standard_normal((2, 3, 4)),
        "scalarish": np.array([3.5]),
    }
    save_container(path, arrays, meta={"note": "round trip", "count": 4})
    loaded, meta = load_container(path)
    assert set(loaded) == set(arrays)
    for name, ref in arrays.items():
        np.testing.assert_array_equal(loaded[name], ref)
        assert loaded[name].dtype == ref.dtype
    assert meta == {"note": "round trip", "count": 4}


def test_round_trip_sparse_csr(tmp_path):
    path = str(tmp_path / "sparse.hypo")
    rng = np.random.default_rng(1)
    mat = sp.random(40, 40, density=0.08, random_state=rng, format="csr")
    save_container(path, {"op": mat, "vec": np.ones(5)})
    loaded, meta = load_container(path)
    assert sp.issparse(loaded["op"])
    assert (loaded["op"] != mat).nnz == 0
    np.testing.assert_array_equal(loaded["vec"], np.ones(5))
    assert meta == {}


def test_rewrites_are_byte_identical(tmp_path):
    first = tmp_path / "a.hypo"
    second = tmp_path / "b.hypo"
    mat = sp.diags([1.0, -2.0, 3.0]).tocsr()
    arrays = {"m": mat, "x": np.linspace(0, 1, 9)}
    meta = {"gamma": 0.5, "model": "langevin"}
    save_container(str(first), arrays, meta=meta)
    save_container(str(second), arrays, meta=meta)
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic_is_config_error(tmp_path):
    path = tmp_path / "bogus.hypo"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ConfigError, match="bad magic"):
        load_container(str(path))


def test_magic_prefix_present_on_disk(tmp_path):
    path = tmp_path / "ok.hypo"
    save_container(str(path), {"x": np.zeros(2)})
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_truncated_payload_is_config_error_naming_the_array(tmp_path):
    path = tmp_path / "cut.hypo"
    save_container(str(path), {"x": np.arange(5.0)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError, match=r"cut\.hypo.*truncated.*array 'x'"):
        load_container(str(path))


def test_truncated_header_length_is_config_error(tmp_path):
    path = tmp_path / "stub.hypo"
    save_container(str(path), {"x": np.arange(5.0)})
    path.write_bytes(path.read_bytes()[:7])
    with pytest.raises(ConfigError, match=r"stub\.hypo.*truncated.*header length"):
        load_container(str(path))


def _corrupt(path, old: bytes, new: bytes):
    """Rewrite the first ``old`` in the saved file as ``new``, of equal length."""
    data = path.read_bytes()
    assert len(old) == len(new) and old in data
    path.write_bytes(data.replace(old, new, 1))


def test_corrupt_header_byte_is_config_error_naming_the_file(tmp_path):
    path = tmp_path / "hash.hypo"
    save_container(str(path), {"x": np.arange(5.0)})
    _corrupt(path, b'{"arrays"', b'#"arrays"')
    with pytest.raises(ConfigError, match=r"hash\.hypo.*corrupt: JSONDecodeError"):
        load_container(str(path))


def test_missing_header_key_is_config_error_naming_the_file(tmp_path):
    path = tmp_path / "nokey.hypo"
    save_container(str(path), {"x": np.arange(5.0)})
    _corrupt(path, b'"dtype"', b'"dtypo"')
    with pytest.raises(ConfigError, match=r"nokey\.hypo.*corrupt: KeyError: 'dtype'"):
        load_container(str(path))


def test_csr_triplet_not_matching_its_shape_is_config_error_naming_the_file(tmp_path):
    path = tmp_path / "shape.hypo"
    save_container(str(path), {"m": sp.identity(3, format="csr")})
    _corrupt(path, b'"shape":[3,3]', b'"shape":[2,3]')
    with pytest.raises(ConfigError, match=r"shape\.hypo.*corrupt: ValueError: index pointer"):
        load_container(str(path))
