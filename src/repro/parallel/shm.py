"""Shared-memory arenas: the process backend's ndarray transport.

Every worker owns two long-lived POSIX shared-memory *arenas*, one per
round parity.  A contribution's buffer-kind ndarrays (bool, int, uint,
float, complex; any size above zero, at any depth of dicts, lists and
tuples) are copied into the arena of the round's parity and replaced by
:class:`ShmRef` descriptors; the arena's name travels once per message.
Only descriptors cross the pipe, and each byte a rank receives is copied
once, by that rank (:meth:`Arenas.unwire`).

Why two arenas suffice: a rank writes round ``k+2`` over round ``k``
only after round ``k+1`` completed, and every peer contributes to round
``k+1`` strictly after copying out of round ``k``.  The parity flips on
each *completed* round, so the rule survives an in-place rollback: a
round cut short was never delivered, and the next write reuses its
arena.  An arena grows geometrically (create the larger segment, unlink
the smaller); readers keep one attachment per (owner, parity) and
re-attach only when a growth changes the name.

Names are derivable: ``repro-<parent pid>-<worker pid>-<parity>-<growth>``.
The parent unlinks a worker's arenas by prefix (:func:`sweep`) when the
worker dies or is replaced, when a warm pool retires, and when a
non-persistent attempt ends — so a worker killed between growing its
arena and sending the ``put`` that names it strands nothing.

Resource-tracker traffic for these segments is suppressed
(:func:`_untracked`): ownership is explicit, and Python 3.11 registers a
name on *every* handle (attach included) into per-tracker caches, so
register/unregister pairs land on different trackers, spam ``KeyError``
or "leaked shared_memory" warnings, and a killed worker's tracker may
unlink a segment its peers still read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

#: dtype kinds that are plain fixed-size buffers (bool, int, uint, float,
#: complex); object/str/void arrays keep going through pickle.
_BUFFER_KINDS = "biufc"
#: Arena offsets are aligned to a cache line.
_ALIGN = 64
#: Smallest arena ever created (bytes).
_MIN_ARENA = 1 << 16
_SHM_DIR = "/dev/shm"


class ShmRef(NamedTuple):
    """A pickled stand-in for an ndarray parked in its sender's arena."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


@contextmanager
def _untracked() -> Iterator[None]:
    """Suppress resource-tracker traffic while touching our segments."""
    orig_reg = resource_tracker.register
    orig_unreg = resource_tracker.unregister

    def register(name: str, rtype: str) -> None:
        """Forward every registration except shared-memory ones."""
        if rtype != "shared_memory":
            orig_reg(name, rtype)

    def unregister(name: str, rtype: str) -> None:
        """Forward every deregistration except shared-memory ones."""
        if rtype != "shared_memory":
            orig_unreg(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister
    try:
        yield
    finally:
        resource_tracker.register = orig_reg
        resource_tracker.unregister = orig_unreg


def arena_prefix(parent_pid: int, worker_pid: int) -> str:
    """The name prefix every arena of one worker process starts with."""
    return f"repro-{parent_pid}-{worker_pid}-"


def sweep(prefixes: List[str]) -> None:
    """Unlink every segment whose name starts with one of ``prefixes``.

    Lists ``/dev/shm`` where it exists (Linux), so segments the parent
    never heard of go too; elsewhere it probes the derivable names.
    """
    try:
        names = [n for n in os.listdir(_SHM_DIR) if n.startswith(tuple(prefixes))]
    except FileNotFoundError:
        names = [f"{p}{par}-{g}" for p in prefixes for par in (0, 1) for g in range(1, 64)]
    with _untracked():
        for name in names:
            try:
                shared_memory.SharedMemory(name).unlink()
            except FileNotFoundError:
                pass


def _map(obj: Any, fn: Any) -> Any:
    """``fn`` applied to every leaf of ``obj``'s dict/list/tuple nesting."""
    kind = type(obj)
    if kind is dict:
        return {k: _map(v, fn) for k, v in obj.items()}
    if kind is list:
        return [_map(v, fn) for v in obj]
    if kind is tuple:
        return tuple(_map(v, fn) for v in obj)
    return fn(obj)


class Arenas:
    """One worker's two write arenas and its read attachments.

    Lives as long as the worker process (across jobs and rollbacks).
    ``moved`` counts the bytes this worker copied out of peers' arenas.
    """

    def __init__(self, prefix: str) -> None:
        """Own the arenas named ``prefix<parity>-<growth>``."""
        self.prefix = prefix
        self.parity = 0  # flips on every completed round
        self.moved = 0
        self._growth = 0
        self._out: List[Optional[shared_memory.SharedMemory]] = [None, None]
        self._in: Dict[str, shared_memory.SharedMemory] = {}

    # Writing ----------------------------------------------------------------

    def wire(self, obj: Any) -> Tuple[Optional[str], Any]:
        """Park ``obj``'s ndarrays in this round's arena.

        Returns ``(arena name, payload with ShmRef stand-ins)``; the name
        is ``None`` when ``obj`` holds no ndarray worth parking.
        """
        pending: List[Tuple[int, np.ndarray]] = []
        end = 0

        def park(v: Any) -> Any:
            nonlocal end
            if type(v) is not np.ndarray or v.dtype.kind not in _BUFFER_KINDS or not v.nbytes:
                return v
            ref = ShmRef(end, v.dtype.str, v.shape)
            pending.append((end, v))
            end += -(-v.nbytes // _ALIGN) * _ALIGN
            return ref

        wired = _map(obj, park)
        if not pending:
            return None, obj
        shm = self._reserve(end)
        for off, arr in pending:
            np.ndarray(arr.shape, arr.dtype, buffer=shm.buf, offset=off)[...] = arr
        return shm.name, wired

    def _reserve(self, nbytes: int) -> shared_memory.SharedMemory:
        """This parity's arena, grown (new name, old one unlinked) to fit."""
        shm = self._out[self.parity]
        if shm is not None and shm.size >= nbytes:
            return shm
        size = max(nbytes, _MIN_ARENA, 2 * shm.size if shm is not None else 0)
        with _untracked():
            while True:
                self._growth += 1
                name = f"{self.prefix}{self.parity}-{self._growth}"
                try:
                    grown = shared_memory.SharedMemory(name, create=True, size=size)
                    break
                except FileExistsError:  # left behind by a recycled pid
                    continue
            if shm is not None:
                # Every peer finished reading this parity (see the module
                # docstring), so the smaller arena can go right away.
                shm.close()
                shm.unlink()
        self._out[self.parity] = grown
        return grown

    # Reading ----------------------------------------------------------------

    def unwire(self, name: Optional[str], obj: Any) -> Any:
        """Copy the ndarrays ``obj`` refers to out of arena ``name``."""
        if name is None:
            return obj
        key = name.rsplit("-", 1)[0]  # owner and parity
        shm = self._in.get(key)
        if shm is None or shm.name != name:
            with _untracked():
                shm = self._in[key] = shared_memory.SharedMemory(name=name)

        def copy(v: Any) -> Any:
            if type(v) is not ShmRef:
                return v
            arr = np.ndarray(v.shape, v.dtype, buffer=shm.buf, offset=v.offset).copy()
            self.moved += arr.nbytes
            return arr

        return _map(obj, copy)
