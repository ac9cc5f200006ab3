"""Binary container for assembled operators.

Layout: 5-byte magic ``HYPO1``, a little-endian uint32 header length, a JSON
header, then the raw array payloads in header order.  Dense arrays are stored
C-contiguous little-endian; sparse matrices are stored as their CSR triplet
(data, indices, indptr).  The header records name, kind, dtype and shape for
every entry, so files are self-describing.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

MAGIC = b"HYPO1"


def _le(arr: np.ndarray) -> np.ndarray:
    """Return a C-contiguous little-endian view/copy of the array."""
    dtype = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr, dtype=dtype)


def save_container(path: str, arrays: dict, meta: dict | None = None) -> None:
    """Write named dense arrays and CSR matrices to one binary file."""
    entries = []
    payloads = []
    for name, value in arrays.items():
        if sp.issparse(value):
            csr = value.tocsr()
            parts = {"data": _le(csr.data), "indices": _le(csr.indices),
                     "indptr": _le(csr.indptr)}
            entries.append({
                "name": name, "kind": "csr", "shape": list(csr.shape),
                "dtypes": {k: v.dtype.str for k, v in parts.items()},
                "lengths": {k: int(v.size) for k, v in parts.items()},
            })
            payloads.extend(parts.values())
        else:
            arr = _le(np.asarray(value))
            entries.append({"name": name, "kind": "dense",
                            "shape": list(arr.shape), "dtype": arr.dtype.str})
            payloads.append(arr)
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(np.array(len(header), dtype="<u4").tobytes())
        handle.write(header)
        for payload in payloads:
            handle.write(payload.tobytes())


def _read(handle, dtype, count: int, path: str, what: str) -> np.ndarray:
    """``count`` items of ``dtype``, or a ConfigError naming the file and the part."""
    dtype = np.dtype(dtype)
    size = count * dtype.itemsize
    data = handle.read(size)
    if len(data) != size:
        raise ConfigError([f"{path!r} is truncated: {what} needs {size} bytes, "
                           f"{len(data)} left"])
    return np.frombuffer(data, dtype=dtype).copy()


def load_container(path: str) -> tuple[dict, dict]:
    """Read a container back; returns ({name: array-or-csr}, meta).  A header
    that does not parse, lacks a key or contradicts its payload is a
    ConfigError naming the file, like a truncated file."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigError([f"{path!r} is not a container file (bad magic {magic!r})"])
        (header_len,) = _read(handle, "<u4", 1, path, "the header length")
        try:
            header = json.loads(_read(handle, "u1", int(header_len), path, "the header").tobytes())
            arrays = {}
            for entry in header["arrays"]:
                name = entry["name"]
                if entry["kind"] == "dense":
                    count = int(np.prod(entry["shape"], dtype=np.int64))
                    arrays[name] = _read(handle, entry["dtype"], count, path,
                                         f"array {name!r}").reshape(entry["shape"])
                elif entry["kind"] == "csr":
                    parts = [_read(handle, entry["dtypes"][part], int(entry["lengths"][part]),
                                   path, f"array {name!r} ({part})")
                             for part in ("data", "indices", "indptr")]
                    arrays[name] = sp.csr_matrix(tuple(parts), shape=tuple(entry["shape"]))
                else:
                    raise ConfigError([f"unknown array kind {entry['kind']!r} in {path!r}"])
            return arrays, header["meta"]
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError([f"{path!r} is corrupt: {type(exc).__name__}: {exc}"]) from exc
