"""The versioned on-disk container every persisted structure shares.

One file holds a JSON header plus raw, 64-byte-aligned array segments:

``
+--------------------+  offset 0
| magic   (8 bytes)  |  b"REPROBOX"
| header length (8)  |  little-endian uint64
| header JSON (utf-8)|  format/version/kind/meta + array directory
| padding to 64      |
+--------------------+  <- data region (64-aligned)
| segment 0 ... (64-aligned each)
+--------------------+
``

The header's array directory records each segment's name, dtype (with an
explicit byte order), shape and *relative* offset inside the data
region, so the header can be serialized without a fixed-point dance.  A
``content_hash`` (sha256 over the canonical meta JSON and every
segment's raw bytes) stamps the file; servers attach it to responses so
clients can audit which structure answered.

Readers open the data region through one :func:`numpy.memmap` and hand
out zero-copy views — N processes loading the same file share a single
page-cache copy, and nothing is deserialized until touched.  All
failure modes (bad magic, truncation, corrupt header, out-of-range
segments, version from the future) raise :class:`ContainerError` with a
message naming the file, never garbage arrays.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Container",
    "ContainerError",
    "check_csr",
    "check_indptr",
    "FORMAT_VERSION",
    "MAGIC",
    "read_container",
    "write_container",
]

PathLike = Union[str, Path]

#: File magic (8 bytes) — the first thing every reader checks.
MAGIC = b"REPROBOX"

#: Bump on incompatible layout changes; readers refuse newer versions.
FORMAT_VERSION = 1

#: Segment alignment: one cache line / SIMD-friendly, and divides 4096,
#: so every aligned segment is also page-alignable by the mmap.
_ALIGN = 64

_FIXED = len(MAGIC) + 8  # magic + uint64 header length


class ContainerError(ValueError):
    """A container file is missing, corrupt, truncated or incompatible."""


def check_indptr(
    what: str,
    name: str,
    indptr: Any,
    rows: Tuple[str, int],
    end: Tuple[str, int],
) -> np.ndarray:
    """Refuse a persisted CSR offset array that would slice wrong, with a
    :class:`ContainerError` naming ``what`` and the failed check.

    ``rows`` is the row count with the name the message gives it, e.g.
    ``("n", n)``, and ``end`` the length of the sliced array with its
    name, e.g. ``("len(ids)", ids.size)``.  The offsets are integers,
    one more than there are rows, start at 0, never decrease and end at
    that length.  Returns them as int64.  O(rows).
    """
    rows_name, count = rows
    end_name, size = end

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    indptr = np.asarray(indptr)
    if indptr.dtype.kind not in "iu":
        fail(f"{name} must hold integers")
    if indptr.shape != (count + 1,):
        fail(f"{name} must have {rows_name} + 1 = {count + 1} entries "
             f"(has shape {indptr.shape})")
    indptr = indptr.astype(np.int64, copy=False)
    if indptr[0] != 0:
        fail(f"{name} must start at 0")
    if np.any(np.diff(indptr) < 0):
        fail(f"{name} must never decrease")
    if indptr[-1] != size:
        fail(f"{name} must end at {end_name} = {size}")
    return indptr


def check_csr(
    what: str,
    arrays: Mapping[str, Any],
    names: Tuple[str, str],
    rows: Tuple[str, int],
    n: int,
) -> None:
    """Refuse a persisted CSR block of node-id rows that would read wrong,
    with a :class:`ContainerError` naming ``what`` and the failed check.

    ``names`` are the (indptr, ids) arrays' keys and ``rows`` the row
    count with the name the message gives it, e.g. ``("n", n)``.  The
    indptr passes :func:`check_indptr` against the ids; the ids are
    integers in ``[0, n)``, strictly increasing within each row.
    O(rows + ids).
    """
    indptr_name, ids_name = names

    def fail(check: str) -> None:
        raise ContainerError(f"malformed {what}: {check}")

    indptr = np.asarray(arrays[indptr_name])
    ids = np.asarray(arrays[ids_name])
    if indptr.dtype.kind not in "iu" or ids.dtype.kind not in "iu":
        fail(f"{indptr_name} and {ids_name} must hold integers")
    if ids.ndim != 1:
        fail(f"{ids_name} must be one-dimensional")
    indptr = check_indptr(what, indptr_name, indptr, rows, (f"len({ids_name})", ids.size))
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        fail(f"{ids_name} must lie in [0, {n})")
    rising = np.diff(ids.astype(np.int64, copy=False)) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < ids.size)] - 1] = True
    if not rising.all():
        fail(f"{ids_name} must be strictly increasing within each row")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _canonical_meta(kind: str, meta: Mapping[str, Any]) -> bytes:
    return json.dumps(
        {"kind": kind, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def write_container(
    path: PathLike,
    kind: str,
    meta: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
) -> str:
    """Write ``arrays`` plus ``meta`` to ``path``; returns the content hash.

    ``meta`` must be JSON-serializable; arrays are written C-contiguous
    with explicit-byte-order dtypes so the file is self-describing.
    """
    path = Path(path)
    blocks: Dict[str, np.ndarray] = {
        name: np.ascontiguousarray(arr) for name, arr in arrays.items()
    }

    digest = hashlib.sha256(_canonical_meta(kind, dict(meta)))
    directory = []
    offset = 0
    for name, arr in blocks.items():
        offset = _align(offset)
        directory.append(
            {
                "name": str(name),
                "dtype": np.dtype(arr.dtype).str,
                "shape": [int(s) for s in arr.shape],
                "offset": int(offset),
                "nbytes": int(arr.nbytes),
            }
        )
        digest.update(arr.tobytes())
        offset += arr.nbytes
    content_hash = f"sha256:{digest.hexdigest()}"

    header = {
        "format": "repro-container",
        "version": FORMAT_VERSION,
        "kind": str(kind),
        "meta": dict(meta),
        "arrays": directory,
        "content_hash": content_hash,
        "writer": {"numpy": np.__version__},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(_FIXED + len(header_bytes))

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        fh.write(b"\0" * (data_start - _FIXED - len(header_bytes)))
        cursor = 0
        for entry, arr in zip(directory, blocks.values()):
            fh.write(b"\0" * (entry["offset"] - cursor))
            if arr.nbytes:  # memoryview cannot cast zero-size views
                fh.write(memoryview(arr).cast("B"))
            cursor = entry["offset"] + entry["nbytes"]
    return content_hash


class Container:
    """A read-back container: header fields plus zero-copy array views."""

    def __init__(
        self,
        path: Path,
        kind: str,
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
        content_hash: str,
        version: int,
    ) -> None:
        self.path = path
        self.kind = kind
        self.meta = meta
        self.arrays = arrays
        self.content_hash = content_hash
        self.version = version

    def resident_bytes(self) -> int:
        """Total bytes of the mapped array segments (shared page cache —
        the per-process private heap cost is near zero until written)."""
        return int(sum(arr.nbytes for arr in self.arrays.values()))

    def verify(self) -> bool:
        """Recompute the content hash over meta + every segment's bytes.

        Pages every segment in; use for explicit integrity audits, not on
        the serve path.  Returns True when intact, raises
        :class:`ContainerError` on mismatch.
        """
        digest = hashlib.sha256(_canonical_meta(self.kind, self.meta))
        for arr in self.arrays.values():
            digest.update(np.ascontiguousarray(arr).tobytes())
        recomputed = f"sha256:{digest.hexdigest()}"
        if recomputed != self.content_hash:
            raise ContainerError(
                f"{self.path}: content hash mismatch (header says "
                f"{self.content_hash}, data hashes to {recomputed}) — "
                "the file was corrupted after writing"
            )
        return True

    def __repr__(self) -> str:
        return (
            f"Container(kind={self.kind!r}, arrays={len(self.arrays)}, "
            f"bytes={self.resident_bytes()}, hash={self.content_hash[:15]}…)"
        )


def read_container(
    path: PathLike, mmap: bool = True, verify: bool = False
) -> Container:
    """Open a container written by :func:`write_container`.

    ``mmap=True`` (default) maps the data region read-only — loading is
    O(header) regardless of structure size and processes share pages.
    ``verify=True`` additionally recomputes the content hash (reads
    everything).
    """
    path = Path(path)
    if not path.is_file():
        raise ContainerError(f"{path}: no such file")
    size = path.stat().st_size
    with open(path, "rb") as fh:
        prefix = fh.read(_FIXED)
        if len(prefix) < _FIXED or prefix[: len(MAGIC)] != MAGIC:
            raise ContainerError(
                f"{path}: not a repro container (bad magic; expected "
                f"{MAGIC!r} — is this a legacy .npz or a different file?)"
            )
        header_len = int.from_bytes(prefix[len(MAGIC) :], "little")
        if header_len <= 0 or _FIXED + header_len > size:
            raise ContainerError(
                f"{path}: truncated or corrupt (header claims {header_len} "
                f"bytes but the file holds {size})"
            )
        header_bytes = fh.read(header_len)
    if len(header_bytes) < header_len:
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ContainerError(f"{path}: corrupt header JSON ({err})") from err
    if header.get("format") != "repro-container":
        raise ContainerError(f"{path}: unrecognized container format")
    version = int(header.get("version", -1))
    if not 0 < version <= FORMAT_VERSION:
        raise ContainerError(
            f"{path}: container version {version} is newer than this "
            f"reader (supports up to {FORMAT_VERSION}); upgrade repro"
        )

    data_start = _align(_FIXED + header_len)
    buffer: Optional[np.ndarray] = None
    if size > data_start:
        if mmap:
            buffer = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            buffer = np.fromfile(path, dtype=np.uint8)

    arrays: Dict[str, np.ndarray] = {}
    for entry in header.get("arrays", []):
        try:
            name = entry["name"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as err:
            raise ContainerError(
                f"{path}: corrupt array directory entry ({err})"
            ) from err
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != nbytes:
            raise ContainerError(
                f"{path}: segment {name!r} directory is inconsistent "
                f"(shape {shape} x {dtype} = {expected} bytes, header "
                f"says {nbytes})"
            )
        start = data_start + offset
        if start + nbytes > size:
            raise ContainerError(
                f"{path}: truncated — segment {name!r} needs bytes "
                f"[{start}, {start + nbytes}) but the file ends at {size}"
            )
        if nbytes == 0:
            arrays[name] = np.empty(shape, dtype=dtype)
        else:
            arrays[name] = (
                buffer[start : start + nbytes].view(dtype).reshape(shape)
            )

    container = Container(
        path=path,
        kind=str(header.get("kind", "")),
        meta=dict(header.get("meta", {})),
        arrays=arrays,
        content_hash=str(header.get("content_hash", "")),
        version=version,
    )
    if verify:
        container.verify()
    return container
