"""Compiler discovery and the content-addressed shared-object cache.

The native backend compiles one C translation unit per flat schedule.  This
module owns everything platform-shaped about that:

* **discovery** -- :func:`find_compiler` probes ``$CC`` then ``cc`` /
  ``gcc`` / ``clang`` on PATH once per process (:func:`native_available`
  is the boolean view callers and tests gate on);
* **caching** -- :func:`ensure_shared_object` keys compiled ``.so`` files
  by a content hash of the generated C source (itself a deterministic
  function of the schedule's structure: the flat program is rebuilt
  whenever the model's ``structure_token`` moves) together with the
  :data:`EMITTER_VERSION` constant and the compiler banner, so an emitter
  change, a compiler upgrade or any structural model change each get a
  fresh object while identical schedules share one compile across
  processes and sessions;
* **robustness** -- sources and objects reach their shared cache paths
  only through a per-call temp name plus ``os.replace``, the compiler
  runs under :data:`COMPILE_TIMEOUT_S`, and :func:`load_shared_object`
  drops and rebuilds (once) a cached object ``ctypes`` cannot load, such
  as a truncated entry;
* **hygiene** -- :func:`evict_stale` drops objects from older emitter
  versions and trims the cache to a bounded number of entries;
  :func:`native_info` reports compiler, cache directory and cached
  entries (the ``python -m repro.simulation.native --info`` payload).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from ...core.errors import SimulationError

#: Bump whenever the C emitter's output semantics change: the version is
#: part of every cache key and :func:`evict_stale` drops entries of older
#: versions.
EMITTER_VERSION = 3

#: Cache-entry filename prefix carrying the emitter version.
_PREFIX = f"nv{EMITTER_VERSION}-"

#: Upper bound on cached shared objects (oldest-first trim).
MAX_CACHE_ENTRIES = 64

#: Wall-clock limit of one compiler run; a hung compiler surfaces as a
#: :class:`NativeLoweringError` instead of stalling the caller.
COMPILE_TIMEOUT_S = 300

#: Compilers probed (in order) when ``$CC`` is not set.
_CANDIDATES = ("cc", "gcc", "clang")

_UNSET = object()
_compiler_cache: Any = _UNSET
#: Per-call temp-name counter: threads of one process compiling the same
#: key must not share a temp file.
_TEMP_IDS = itertools.count()
_banner_cache: Dict[str, str] = {}


class NativeLoweringError(SimulationError):
    """Native C lowering was refused or failed.

    Raised when the schedule's ``ir_verify`` report is not clean, when no
    C compiler is available to an explicit :func:`compile_native` call, or
    when the platform compiler rejects the generated translation unit.
    """


def find_compiler() -> Optional[str]:
    """Absolute path of the platform C compiler, or ``None``.

    ``$CC`` wins when set (and resolvable); otherwise the first of ``cc``,
    ``gcc``, ``clang`` found on PATH.  The probe result is cached per
    process; tests may call :func:`reset_toolchain_cache` after changing
    the environment.
    """
    global _compiler_cache
    if _compiler_cache is not _UNSET:
        return _compiler_cache
    explicit = os.environ.get("CC")
    candidates = ((explicit,) if explicit else ()) + _CANDIDATES
    found = None
    for name in candidates:
        path = shutil.which(name)
        if path:
            found = path
            break
    _compiler_cache = found
    return found


def native_available() -> bool:
    """True when a C compiler is available (``backend="native"`` and its
    alias ``"batch"`` degrade to flat without one)."""
    return find_compiler() is not None


def reset_toolchain_cache() -> None:
    """Forget the cached compiler probe (tests that mutate ``$CC``/PATH)."""
    global _compiler_cache
    _compiler_cache = _UNSET
    _banner_cache.clear()


def compiler_banner(compiler: str) -> str:
    """First line of ``<compiler> --version`` (keyed into the cache hash)."""
    banner = _banner_cache.get(compiler)
    if banner is None:
        try:
            proc = subprocess.run([compiler, "--version"],
                                  capture_output=True, text=True, timeout=30)
            banner = (proc.stdout or proc.stderr).splitlines()[0].strip() \
                if (proc.stdout or proc.stderr) else compiler
        except (OSError, subprocess.SubprocessError, IndexError):
            banner = compiler
        _banner_cache[compiler] = banner
    return banner


def cache_dir() -> str:
    """The shared-object cache directory (created lazily by writers).

    ``$REPRO_NATIVE_CACHE`` overrides; the default is
    ``~/.cache/repro-native`` with a per-user temp-dir fallback when the
    home directory is not writable.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~" and os.path.isdir(home):
        return os.path.join(home, ".cache", "repro-native")
    return os.path.join(tempfile.gettempdir(),
                        f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 'u'}")


def cache_key(source: str, compiler: Optional[str] = None) -> str:
    """Deterministic cache key of one generated translation unit.

    The key hashes ``(EMITTER_VERSION, compiler banner, source)``.  The
    source is a pure function of the flat schedule's program, which is
    rebuilt whenever the model's ``structure_token`` changes -- so the key
    is content-addressed over exactly the facts that affect the compiled
    object, while two identically-structured models (same token history,
    same expressions) share one entry.
    """
    compiler = compiler if compiler is not None else find_compiler()
    banner = compiler_banner(compiler) if compiler else ""
    digest = hashlib.sha256()
    digest.update(f"emitter={EMITTER_VERSION}\n".encode())
    digest.update(f"compiler={banner}\n".encode())
    digest.update(source.encode())
    return _PREFIX + digest.hexdigest()[:40]


def evict_stale(keep: int = MAX_CACHE_ENTRIES,
                directory: Optional[str] = None) -> List[str]:
    """Drop stale cache entries; returns the removed file paths.

    Stale means: built by a different :data:`EMITTER_VERSION` (filename
    prefix mismatch), or beyond the newest *keep* current-version entries
    (oldest ``.so`` mtime first).  Companion ``.c`` sources are removed
    with their objects.
    """
    directory = directory or cache_dir()
    removed: List[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    entries: List[Tuple[float, str]] = []
    for name in names:
        if not name.endswith(".so"):
            continue
        path = os.path.join(directory, name)
        if not name.startswith(_PREFIX):
            removed.extend(_remove_entry(path))
            continue
        try:
            entries.append((os.path.getmtime(path), path))
        except OSError:
            continue
    entries.sort(reverse=True)
    for _mtime, path in entries[max(0, keep):]:
        removed.extend(_remove_entry(path))
    return removed


def _remove_entry(so_path: str) -> List[str]:
    removed = []
    for path in (so_path, so_path[:-3] + ".c"):
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            pass
    return removed


def ensure_shared_object(source: str,
                         directory: Optional[str] = None
                         ) -> Tuple[str, bool]:
    """Compile *source* (or reuse the cached object); returns ``(path, hit)``.

    Writes are atomic (the source and the object each go to a per-call
    temp name and are ``os.replace``-d into place), so concurrent workers
    -- processes or threads -- racing on the same key never see a partial
    file and converge on one valid object.  Any file-system or compiler
    failure raises :class:`NativeLoweringError`.  A cache miss triggers
    :func:`evict_stale`.
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeLoweringError(
            "no C compiler available (set $CC or install cc/gcc/clang)")
    directory = directory or cache_dir()
    key = cache_key(source, compiler)
    so_path = os.path.join(directory, key + ".so")
    if os.path.exists(so_path):
        return so_path, True
    c_path = os.path.join(directory, key + ".c")
    suffix = f".tmp{os.getpid()}-{next(_TEMP_IDS)}"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(c_path + suffix, "w", encoding="utf-8") as handle:
            handle.write(source)
        os.replace(c_path + suffix, c_path)
    except OSError as exc:
        _discard(c_path + suffix)
        raise NativeLoweringError(
            f"cannot write C source {c_path}: {exc}") from exc
    tmp_path = so_path + suffix
    command = [compiler, "-O2", "-std=c99", "-fPIC", "-shared",
               "-o", tmp_path, c_path, "-lm"]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        _discard(tmp_path)
        raise NativeLoweringError(
            f"C compilation timed out after {COMPILE_TIMEOUT_S}s "
            f"({' '.join(command)})") from exc
    except OSError as exc:
        _discard(tmp_path)
        raise NativeLoweringError(
            f"cannot run the C compiler ({' '.join(command)}): {exc}") from exc
    if proc.returncode != 0:
        _discard(tmp_path)
        raise NativeLoweringError(
            f"C compilation failed ({' '.join(command)}):\n"
            f"{proc.stderr.strip() or proc.stdout.strip()}")
    try:
        os.replace(tmp_path, so_path)
    except OSError as exc:
        _discard(tmp_path)
        raise NativeLoweringError(
            f"cannot install native object {so_path}: {exc}") from exc
    evict_stale(directory=directory)
    return so_path, False


def load_shared_object(source: str, directory: Optional[str] = None
                       ) -> Tuple[ctypes.CDLL, str, bool]:
    """:func:`ensure_shared_object` plus the ``ctypes`` load.

    Returns ``(library, path, hit)``.  A cached object that fails to load
    (a truncated or otherwise corrupt entry) is dropped and rebuilt once;
    an object that still cannot be loaded raises
    :class:`NativeLoweringError`.
    """
    so_path, hit = ensure_shared_object(source, directory)
    if hit:
        try:
            return ctypes.CDLL(so_path), so_path, True
        except OSError:
            _remove_entry(so_path)
            so_path, hit = ensure_shared_object(source, directory)
    try:
        return ctypes.CDLL(so_path), so_path, hit
    except OSError as exc:
        raise NativeLoweringError(
            f"cannot load native object {so_path}: {exc}") from exc


def _discard(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def cache_entries(directory: Optional[str] = None) -> List[Dict[str, Any]]:
    """The cached shared objects: name, size, mtime, current-version flag."""
    directory = directory or cache_dir()
    entries: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return entries
    for name in names:
        if not name.endswith(".so"):
            continue
        path = os.path.join(directory, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue
        entries.append({"name": name, "bytes": stat.st_size,
                        "mtime": stat.st_mtime,
                        "current_version": name.startswith(_PREFIX)})
    return entries


def native_info() -> Dict[str, Any]:
    """Compiler, cache location and cached entries (the ``--info`` payload)."""
    compiler = find_compiler()
    return {
        "available": compiler is not None,
        "compiler": compiler,
        "compiler_banner": compiler_banner(compiler) if compiler else None,
        "emitter_version": EMITTER_VERSION,
        "cache_dir": cache_dir(),
        "max_cache_entries": MAX_CACHE_ENTRIES,
        "entries": cache_entries(),
    }
