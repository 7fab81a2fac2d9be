"""Persistent on-disk cache for compiled simulation kernels.

The ``codegen`` backend pays a compilation cost before its first sweep:
it exec-compiles one straight-line Python kernel per injection *shape*
(several milliseconds each on the benchmark circuits).  Campaign workers
and warm repeat runs pay that cost again in every process — unless the
compiled kernel is persisted.  This module is that persistence layer: a content-addressed directory of cache
entries keyed by a structural circuit fingerprint plus a backend format
version, enabled by the :data:`ENV_VAR` environment variable (or
:func:`configure`, which sets it so forked/spawned worker processes
inherit the setting).

Entries are ``marshal`` payloads — never pickle, so loading an entry
cannot execute arbitrary code — wrapped in a magic header and a SHA-256
integrity digest.  A truncated, bit-flipped, or otherwise unreadable
entry is detected on load, counted in :func:`cache_stats`, deleted, and
silently recompiled; the cache can never turn a warm start into a
crash.  Writes are atomic (temp file + rename), so concurrent campaign
workers sharing one cache directory race benignly: last writer wins and
every reader sees a complete entry or none.

The cache is *off* by default.  Point ``REPRO_KERNEL_CACHE`` at a
directory (or pass ``--kernel-cache`` to the CLI) to enable it.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import tempfile
import threading
from typing import Any, Dict, Optional

#: Environment variable naming the cache directory (unset = disabled).
ENV_VAR = "REPRO_KERNEL_CACHE"

#: On-disk entry layout version, embedded in the file magic.
_MAGIC = b"RKC1"

#: Cache statistics, kept per thread so jobs the service runs
#: concurrently in one process never count each other's.  ``hits`` /
#: ``misses`` count only lookups made while the cache is enabled;
#: ``corrupt`` counts entries that failed the integrity check and were
#: discarded.  Runs report the change as ``sim.kernel_cache.*`` counters.
_STATS = threading.local()

#: Attribute caching the fingerprint on a CompiledCircuit instance.
_FP_ATTR = "_kernel_cache_fingerprint"


def configure(path: Optional[str]) -> None:
    """Set (or clear, with ``None``/empty) the cache directory.

    The choice is stored in the process environment, so worker processes
    started after this call (campaign workers) inherit it without any
    explicit plumbing.
    """
    if path:
        os.environ[ENV_VAR] = str(path)
    else:
        os.environ.pop(ENV_VAR, None)


def cache_dir() -> Optional[str]:
    """The active cache directory, or ``None`` when caching is disabled."""
    return os.environ.get(ENV_VAR) or None


def cache_stats() -> Dict[str, int]:
    """This thread's cumulative cache statistics."""
    if not hasattr(_STATS, "counts"):
        _STATS.counts = dict.fromkeys(("hits", "misses", "writes", "corrupt"), 0)
    return _STATS.counts


def stats_snapshot() -> Dict[str, int]:
    """Copy of :func:`cache_stats` for delta accounting."""
    return dict(cache_stats())


def circuit_fingerprint(cc: Any) -> str:
    """Structural hash of a compiled circuit: the cache's identity key.

    Covers net names, the levelized gate list (output, code, fanins),
    and the PI/PO/flip-flop interface — everything a compiled kernel
    depends on.  Cached on the compiled circuit itself.
    """
    fp = getattr(cc, _FP_ATTR, None)
    if fp is None:
        structure = (
            tuple(cc.net_names),
            tuple((g.out, g.code, tuple(g.fanin)) for g in cc.gates),
            tuple(cc.pi),
            tuple(cc.po),
            tuple(cc.ff_out),
            tuple(cc.ff_in),
        )
        fp = hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()
        setattr(cc, _FP_ATTR, fp)
    return fp


def entry_key(
    kind: str, version: object, fingerprint: str, extra: object = None
) -> str:
    """Content-addressed key for one cache entry."""
    raw = repr((kind, version, fingerprint, extra)).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _entry_path(root: str, key: str) -> str:
    return os.path.join(root, key[:2], key + ".rkc")


def load(key: str) -> Optional[Any]:
    """The payload stored under ``key``, or ``None``.

    Any failure mode — missing file, truncated blob, digest mismatch,
    unreadable marshal data — returns ``None`` so the caller recompiles;
    corrupt entries are additionally deleted so the next :func:`store`
    replaces them with a good copy.
    """
    root = cache_dir()
    if root is None:
        return None
    path = _entry_path(root, key)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        cache_stats()["misses"] += 1
        return None
    payload = None
    if blob[:4] == _MAGIC and len(blob) > 36:
        digest, body = blob[4:36], blob[36:]
        if hashlib.sha256(body).digest() == digest:
            try:
                payload = marshal.loads(body)
            except (ValueError, EOFError, TypeError):
                payload = None
    if payload is None:
        cache_stats()["corrupt"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    cache_stats()["hits"] += 1
    return payload


def store(key: str, payload: Any) -> bool:
    """Persist ``payload`` under ``key``; best-effort, never raises.

    Returns ``True`` when the entry was written.  A full disk, read-only
    directory, or unmarshallable payload degrades to "no cache", exactly
    like running with caching disabled.
    """
    root = cache_dir()
    if root is None:
        return False
    try:
        body = marshal.dumps(payload)
    except ValueError:
        return False
    blob = _MAGIC + hashlib.sha256(body).digest() + body
    path = _entry_path(root, key)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    cache_stats()["writes"] += 1
    return True
