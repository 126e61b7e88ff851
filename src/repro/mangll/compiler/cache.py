"""Two-level kernel cache: in-memory modules + on-disk generated source.

Compiled kernels are plain Python source strings (see
:mod:`repro.mangll.compiler.emit`), keyed by a specialization key such
as ``dg_rhs-d2-p3-f1-advection``.  The cache keeps an in-memory table
of exec'd modules and mirrors the source to disk
(``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro/kernels``) so later
processes skip lowering entirely.

Disk entries carry a *versioned fingerprint* header::

    # repro-kernel v6 key=dg_rhs-d2-p3-f1-advection fingerprint=<sha256>

The fingerprint hashes the IR version, a digest of the compiler's own
source (:data:`EMITTER_DIGEST`), the key, and the body.  A stale entry —
written by another version of the lowering, the passes or the emitter,
truncated, hand-edited — fails the check and is silently regenerated:
the cache cannot serve a kernel this compiler would not have generated,
whether or not anyone remembered to bump ``IR_VERSION``.  Publication reuses the
DiskCheckpointStore idiom (tmp file + fsync + atomic ``os.replace`` +
directory fsync, :mod:`repro.io.checkpoint`), so concurrent writers
racing on one key each publish a complete file and readers never see a
torn one.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from ...io.checkpoint import fsync_dir

#: Bumped whenever the IR, a pass, or the emitter changes the generated
#: source for the same key; stale disk entries are then regenerated.
IR_VERSION = 6


def _emitter_digest() -> str:
    """Digest of the modules that decide what source a key generates."""
    h = hashlib.sha256()
    for name in ("ir.py", "passes.py", "lower.py", "emit.py"):
        try:
            h.update(Path(__file__).with_name(name).read_bytes())
        except OSError:  # a source-less install still has IR_VERSION
            h.update(name.encode())
    return h.hexdigest()[:16]


#: Folded into every fingerprint, so a disk entry written by different
#: compiler source is stale even when ``IR_VERSION`` was not bumped.
EMITTER_DIGEST = _emitter_digest()

_HEADER = "# repro-kernel v{version} key={key} fingerprint={sha}\n"


def fingerprint(key: str, body: str) -> str:
    """The content hash stored in (and checked against) the header."""
    h = hashlib.sha256()
    h.update(f"{IR_VERSION}\n{EMITTER_DIGEST}\n{key}\n".encode())
    h.update(body.encode())
    return h.hexdigest()


def _render(key: str, body: str) -> str:
    return _HEADER.format(version=IR_VERSION, key=key, sha=fingerprint(key, body)) + body


def _parse(text: str, key: str) -> Optional[str]:
    """Return the body if the header matches this version/key, else None."""
    head, sep, body = text.partition("\n")
    if not sep:
        return None
    expect = _HEADER.format(version=IR_VERSION, key=key, sha=fingerprint(key, body)).rstrip("\n")
    return body if head == expect else None


class KernelCache:
    """In-memory + on-disk cache of generated kernel modules."""

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        """Create a cache rooted at ``disk_dir`` (None disables disk)."""
        self._mem: Dict[str, Dict[str, Any]] = {}
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.hits = 0  # in-memory hits
        self.disk_hits = 0  # disk hits (exec'd into memory)
        self.misses = 0  # full builds
        self.stale = 0  # disk entries rejected by the fingerprint check

    # -- paths --------------------------------------------------------------

    def path_for(self, key: str) -> Optional[Path]:
        """The on-disk source path for ``key`` (None when disk is off)."""
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.py"

    # -- lookup -------------------------------------------------------------

    def get(
        self,
        key: str,
        build: Callable[[], str],
        validate: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, Any]:
        """Return the exec'd module for ``key``, building source if needed.

        ``build`` returns the generated source body; it runs only on a
        full miss.  ``validate`` (if given) runs on every body — fresh
        or from disk — before exec; raising from it aborts the lookup.
        The returned dict is the module namespace holding the kernel
        entry points.
        """
        mod = self._mem.get(key)
        if mod is not None:
            self.hits += 1
            return mod

        body = self._load_disk(key)
        if body is not None:
            self.disk_hits += 1
            if validate is not None:
                validate(body)
        else:
            self.misses += 1
            body = build()
            if validate is not None:
                validate(body)
            self._publish(key, body)

        mod = _exec_kernel_source(body, key)
        self._mem[key] = mod
        return mod

    def _load_disk(self, key: str) -> Optional[str]:
        path = self.path_for(key)
        if path is None:
            return None
        try:
            text = path.read_text()
        except OSError:
            return None
        body = _parse(text, key)
        if body is None:
            self.stale += 1
        return body

    def _publish(self, key: str, body: str) -> None:
        path = self.path_for(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".tmp-{key}-", suffix=".py", dir=str(path.parent)
            )
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(_render(key, body))
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            fsync_dir(path.parent)
        except OSError:
            # A read-only or full cache dir degrades to memory-only.
            pass


def _exec_kernel_source(body: str, key: str) -> Dict[str, Any]:
    """Exec generated source in a namespace exposing only numpy."""
    from .emit import _AST_LOCK

    namespace: Dict[str, Any] = {"np": np, "__kernel_key__": key}
    # compile() shares CPython's thread-unsafe AST constructor with
    # ast.parse; thread-backend ranks bind (and so exec) concurrently.
    with _AST_LOCK:
        code = compile(body, f"<repro-kernel {key}>", "exec")
    exec(code, namespace)
    return namespace


_default: Optional[KernelCache] = None


def default_cache() -> KernelCache:
    """The process-wide cache (``$REPRO_KERNEL_CACHE`` or ~/.cache)."""
    global _default
    if _default is None:
        root = os.environ.get("REPRO_KERNEL_CACHE")
        if root is None:
            root = os.path.join(os.path.expanduser("~"), ".cache", "repro", "kernels")
        _default = KernelCache(root)
    return _default


def reset_default_cache() -> None:
    """Forget the process-wide cache (tests re-point via the env var)."""
    global _default
    _default = None
