"""Build and load the compiled trial kernel, `_kernel.c`.

The kernel is compiled on first use, never at import, into the package's
`__pycache__` directory as `_kernel.<key>.so`, where the key hashes the C
source with the Python and numpy versions. It links numpy's own
`libnpyrandom.a`, so its draws are the ones a `Generator` makes. A build
goes to a temporary name and is moved into place with `os.replace`, so a
concurrent reader never sees half a file. Each file ends in a digest of
its bytes and its key, and a cached file whose digest does not match
(truncated, or built from other source) is rebuilt, never loaded. When
the kernel cannot be built (no compiler, an unwritable cache, a failed
link), `kernel()` returns None, one note goes to stderr, and callers run
the Python loop. A new build removes the libraries of earlier sources
from the cache directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import sysconfig
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernel.c")
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# Arguments y at which the kernel's lgamma(y + 1) must equal math.lgamma's:
# both branches of the Lanczos sum, the table cap and a total near 2^53.
_LGAMMA_PROBES = (0, 1, 2, 3, 4, 10, 1023, 1 << 21, 10**12 + 7, (1 << 53) - 2)

# The loaded kernel, once `kernel()` has run in this process: [library or None].
_loaded: list = []


def _key(source: bytes) -> str:
    """Cache key of a kernel built from `source` by this interpreter."""
    tag = f"{sys.version}|{np.__version__}|{' '.join(_FLAGS)}".encode()
    return hashlib.sha256(source + b"\0" + tag).hexdigest()[:16]


def _includes() -> list[str]:
    """The compiler's include flags for the kernel: Python's and numpy's headers."""
    return ["-I", sysconfig.get_paths()["include"], "-I", np.get_include()]


def _build(out: str) -> None:
    """Compile the kernel into the file `out`; raise OSError or
    subprocess.CalledProcessError when it cannot be built."""
    numpy_dir = os.path.dirname(np.__file__)
    cmd = [
        "cc", *_FLAGS, *_includes(), _SOURCE,
        os.path.join(numpy_dir, "random", "lib", "libnpyrandom.a"), "-lm", "-o", out,
    ]
    subprocess.run(cmd, check=True, capture_output=True)


def _seal(path: str, key: str) -> None:
    """Append to the library at `path` the digest of its bytes and `key`.
    The loader ignores trailing bytes; `_open` checks them, so a truncated
    file or one built from other source is never loaded (loading a
    truncated library can crash the process)."""
    with open(path, "rb") as fh:
        body = fh.read()
    with open(path, "ab") as fh:
        fh.write(hashlib.sha256(key.encode() + body).digest())


def _open(path: str, key: str):
    """The sealed kernel library at `path` with its entry points typed, or
    None when the file is missing, does not carry the seal of `key`, or
    does not load."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(key.encode() + data[:-32]).digest() != data[-32:]:
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.oddball_lam_odd.argtypes = [i64, i64, ptr]
    lib.oddball_lam_odd.restype = ctypes.c_double
    lib.oddball_block.argtypes = [
        i64, i64, ptr, i64, ptr, ptr, i64, i64, i64, i64, ctypes.c_double, ptr, ptr, ptr, ptr, ptr,
        ptr, ptr, ptr, ptr,
    ]
    lib.oddball_block.restype = None
    lib.oddball_lgamma.argtypes = [i64]
    lib.oddball_lgamma.restype = ctypes.c_double
    lib.oddball_draw.argtypes = [ptr, i64, ptr, i64, i64, ptr]
    lib.oddball_draw.restype = None
    return lib


def _load():
    with open(_SOURCE, "rb") as fh:
        key = _key(fh.read())
    path = os.path.join(_CACHE_DIR, f"_kernel.{key}.so")
    lib = _open(path, key)
    if lib is not None:
        return lib
    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel.", suffix=".so.tmp", dir=_CACHE_DIR)
    os.close(fd)
    try:
        _build(tmp)
        _seal(tmp, key)
        # Load from the private name: a library loaded once stays mapped
        # under its path, so reopening `path` could return a stale copy.
        lib = _open(tmp, key)
        if lib is None:
            raise OSError("the built library does not load")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # Libraries built from earlier sources are never loaded again.
    for name in os.listdir(_CACHE_DIR):
        if name.startswith("_kernel.") and name.endswith(".so") and name != os.path.basename(path):
            try:
                os.remove(os.path.join(_CACHE_DIR, name))
            except OSError:
                pass
    return lib


_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def bitgen_address(bit_generator) -> int:
    """Address of a numpy bit generator's `bitgen_t`, the kernel's source
    of draws (what `bit_generator.ctypes.bit_generator` holds, without
    building the rest of that interface)."""
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


def kernel():
    """The compiled kernel library (entry point `oddball_block`, and
    `oddball_lam_odd`, `oddball_lgamma` and `oddball_draw` for tests),
    built on the first call in a process; None when it cannot be built or
    its lgamma port differs from `math.lgamma` on a few probes, so output
    bytes never depend on which loop ran."""
    if not _loaded:
        try:
            lib = _load()
            if any(lib.oddball_lgamma(y) != math.lgamma(y + 1) for y in _LGAMMA_PROBES):
                raise OSError("its lgamma differs from math.lgamma")
        except (OSError, subprocess.SubprocessError) as exc:
            detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
            reason = detail.splitlines()[0] if detail else str(exc)
            sys.stderr.write(
                f"oddball: compiled trial kernel unavailable ({reason}); using the Python loop\n"
            )
            lib = None
        _loaded.append(lib)
    return _loaded[0]
