"""On-disk serialization of forest checkpoints (npz container).

One :class:`~repro.p4est.checkpoint.ForestCheckpoint` maps to one
``.npz`` file: the octant wire array, one entry per field (prefixed
``field_``), and a small JSON header with the format version, dimension,
topology digest, and application meta.  Everything round-trips through
:func:`write_checkpoint` / :func:`read_checkpoint`; no pickling is used,
so files are portable across runs and Python versions.

The file is the artifact failure recovery depends on, so it is written
*crash-consistently*: the archive is assembled in a same-directory temp
file, flushed and fsynced, then published with ``os.replace`` — a reader
sees either the previous complete file or the new complete file, never a
torn write.  The header additionally records a CRC32 per array, verified
on load; any mismatch, torn zip, or undecodable header raises the typed
:class:`CheckpointCorruptError` (never silently wrong data), which is
what lets a generation store fall back to an older intact snapshot.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from typing import Dict, Union

import numpy as np

from repro.p4est.checkpoint import FORMAT_VERSION, ForestCheckpoint

_FIELD_PREFIX = "field_"


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed integrity verification.

    Raised for torn/truncated archives, CRC32 mismatches, and undecodable
    headers — everything that means "this file cannot be trusted", as
    opposed to "this file does not exist" (``FileNotFoundError``) or
    "this format version is from the future" (``ValueError``).
    """


def array_crc32(arr: np.ndarray) -> int:
    """CRC32 of an array's raw contiguous bytes (the stored checksum)."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


def fsync_dir(path: Union[str, os.PathLike]) -> None:
    """Best-effort fsync of a directory (persists renames within it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_checkpoint(path: Union[str, os.PathLike], ckpt: ForestCheckpoint) -> None:
    """Write ``ckpt`` to ``path`` as a compressed npz archive, atomically.

    The archive is staged in a temp file next to ``path`` (same
    filesystem, so the final ``os.replace`` is an atomic rename), fsynced
    before the rename, and the parent directory fsynced after it.  The
    JSON header carries a CRC32 per stored array for load-time
    verification.
    """
    path = os.fspath(path)
    arrays: Dict[str, np.ndarray] = {"wire": ckpt.wire}
    for name, arr in ckpt.fields.items():
        arrays[_FIELD_PREFIX + name] = arr
    header = {
        "version": ckpt.version,
        "dim": ckpt.dim,
        "digest": ckpt.digest,
        "meta": ckpt.meta,
        "crc32": {name: array_crc32(arr) for name, arr in arrays.items()},
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(os.path.dirname(path) or ".")


def read_checkpoint(path: Union[str, os.PathLike]) -> ForestCheckpoint:
    """Load and verify a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`CheckpointCorruptError` on torn archives, undecodable
    headers, missing arrays, or CRC32 mismatches; ``ValueError`` on a
    genuine format-version mismatch; ``FileNotFoundError`` when the file
    does not exist.
    """
    try:
        # Open the file ourselves: np.load(path) leaks its handle when
        # the archive is torn and the zip reader raises mid-construction.
        with open(path, "rb") as fh, np.load(fh) as data:
            try:
                header = json.loads(bytes(data["header"]).decode())
            except (KeyError, ValueError, UnicodeDecodeError) as exc:
                raise CheckpointCorruptError(
                    f"checkpoint {path}: undecodable header ({exc!r})"
                ) from exc
            if not isinstance(header, dict) or "version" not in header:
                raise CheckpointCorruptError(
                    f"checkpoint {path}: header is not a checkpoint header"
                )
            if header["version"] != FORMAT_VERSION:
                raise ValueError(
                    f"checkpoint format version {header.get('version')} "
                    f"not supported (expected {FORMAT_VERSION})"
                )
            arrays: Dict[str, np.ndarray] = {}
            for key in data.files:
                if key == "header":
                    continue
                try:
                    arrays[key] = data[key]
                except (
                    zipfile.BadZipFile,
                    zlib.error,
                    ValueError,
                    OSError,
                    EOFError,
                ) as exc:
                    raise CheckpointCorruptError(
                        f"checkpoint {path}: array {key!r} unreadable ({exc!r})"
                    ) from exc
    except FileNotFoundError:
        raise
    except (CheckpointCorruptError, ValueError):
        raise
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, KeyError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path}: unreadable archive ({exc!r})"
        ) from exc

    if "wire" not in arrays:
        raise CheckpointCorruptError(f"checkpoint {path}: wire array missing")
    # Verify CRCs for every array the header names (old files without a
    # crc32 map load unverified, for backward compatibility).
    crcs = header.get("crc32", {})
    if not isinstance(crcs, dict):
        raise CheckpointCorruptError(f"checkpoint {path}: malformed crc32 map")
    for name, expected in crcs.items():
        if name not in arrays:
            raise CheckpointCorruptError(
                f"checkpoint {path}: array {name!r} named in header is missing"
            )
        actual = array_crc32(arrays[name])
        if actual != int(expected):
            raise CheckpointCorruptError(
                f"checkpoint {path}: CRC32 mismatch on {name!r} "
                f"(stored {int(expected):#010x}, computed {actual:#010x})"
            )
    fields = {
        key[len(_FIELD_PREFIX):]: arr
        for key, arr in arrays.items()
        if key.startswith(_FIELD_PREFIX)
    }
    try:
        wire = np.asarray(arrays["wire"], dtype=np.int64).reshape(-1, 5)
    except (TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path}: wire array has invalid shape ({exc!r})"
        ) from exc
    return ForestCheckpoint(
        dim=int(header["dim"]),
        digest=str(header["digest"]),
        wire=wire,
        fields=fields,
        meta=dict(header["meta"]),
    )
