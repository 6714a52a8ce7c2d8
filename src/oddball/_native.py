"""Build and load the compiled kernel, `_kernel.c`: the trial loop and the solve.

The kernel is compiled on first use, never at import, into the package's
`__pycache__` directory as `_kernel.<key>.so`, where the key hashes the C
source with the Python version and the text of the installed numpy's
`numpy/version.py`, found with `importlib.util.find_spec` and read, not
imported: a load from the cache needs neither numpy nor the modules a
build runs on (`subprocess`, `tempfile`, `sysconfig`), which only the
build path imports. The kernel links numpy's own `libnpyrandom.a`, so
its draws are the ones a `Generator` makes. A build goes to a temporary
name and is moved into place with `os.replace`, so a concurrent reader
never sees half a file. Each file ends in a digest of its bytes and its
key, and a cached file whose digest does not match (truncated, or built
from other source) is rebuilt, never loaded. When the kernel cannot be
built (no compiler, an unwritable cache, a failed link: each an OSError,
a failed compile one that carries the compiler's first line of errors),
`kernel()` returns None, one note goes to stderr, and callers run the
Python loops. A new build removes the libraries of earlier sources from
the cache directory, and the temporary files of builders no longer
running, whose pid each temporary name carries.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import math
import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernel.c")
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# Arguments y at which the kernel's lgamma(y + 1) must equal math.lgamma's:
# both branches of the Lanczos sum, the table cap and a total near 2^53.
_LGAMMA_PROBES = (0, 1, 2, 3, 4, 10, 1023, 1 << 21, 10**12 + 7, (1 << 53) - 2)

# The kernel's LANES: how many consecutive lgamma values it computes side
# by side. The probe also checks the group of y in [0, _LANES), which
# holds both branches.
_LANES = 8

# The loaded kernel, once `kernel()` has run in this process: [library or None].
_loaded: list = []
_load_lock = threading.Lock()


def _key(source: bytes) -> str:
    """Cache key of a kernel built from `source` by this interpreter against
    the installed numpy, which it names by the text of `numpy/version.py`."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        raise OSError("numpy is not installed")
    with open(os.path.join(spec.submodule_search_locations[0], "version.py"), "rb") as fh:
        numpy_version = fh.read()
    tag = f"{sys.version}|{' '.join(_FLAGS)}".encode()
    return hashlib.sha256(source + b"\0" + numpy_version + b"\0" + tag).hexdigest()[:16]


def _includes() -> list[str]:
    """The compiler's include flags for the kernel: Python's and numpy's headers."""
    import sysconfig

    import numpy as np

    return ["-I", sysconfig.get_paths()["include"], "-I", np.get_include()]


def _build(out: str) -> None:
    """Compile the kernel into the file `out`; raise OSError, with the
    compiler's first line of errors when it fails, when it cannot be built."""
    import subprocess

    import numpy as np

    numpy_dir = os.path.dirname(np.__file__)
    cmd = [
        "cc", *_FLAGS, *_includes(), _SOURCE,
        os.path.join(numpy_dir, "random", "lib", "libnpyrandom.a"), "-lm", "-o", out,
    ]
    proc = subprocess.run(cmd, capture_output=True)
    if proc.returncode != 0:
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(lines[0] if lines else f"cc exited with status {proc.returncode}")


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
    lib.oddball_solve_rows.argtypes = [i64, i64, ptr, ptr, ctypes.c_double, ptr, ptr, ptr]
    lib.oddball_solve_rows.restype = i64
    lib.oddball_block.argtypes = [
        i64, i64, ptr, i64, ptr, ptr, i64, i64, i64, i64, ctypes.c_double, ptr, ptr, ptr, ptr, ptr,
        ptr, ptr, ptr, ptr,
    ]
    lib.oddball_block.restype = None
    lib.oddball_lgamma.argtypes = [ptr, i64, i64]
    lib.oddball_lgamma.restype = None
    lib.oddball_draw.argtypes = [ptr, i64, ptr, ptr, i64, ctypes.c_double, i64, ptr]
    lib.oddball_draw.restype = None
    return lib


def _load():
    with open(_SOURCE, "rb") as fh:
        key = _key(fh.read())
    path = os.path.join(_CACHE_DIR, f"_kernel.{key}.so")
    lib = _open(path, key)
    if lib is not None:
        return lib
    import tempfile

    os.makedirs(_CACHE_DIR, exist_ok=True)
    # The builder's pid in the name tells a later build whether it is still running.
    fd, tmp = tempfile.mkstemp(prefix=f"_kernel.{os.getpid()}.", suffix=".so.tmp", dir=_CACHE_DIR)
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
    # Libraries built from earlier sources are never loaded again. Nor is
    # the temporary file of a builder killed mid-build (a signal skips the
    # `finally` above), but one whose builder still runs is in use.
    for name in os.listdir(_CACHE_DIR):
        if not name.startswith("_kernel.") or name == os.path.basename(path):
            continue
        if name.endswith(".so.tmp"):
            pid = name.split(".")[1]
            if not pid.isdecimal() or _running(int(pid)):
                continue
        elif not name.endswith(".so"):
            continue
        try:
            os.remove(os.path.join(_CACHE_DIR, name))
        except OSError:
            pass
    return lib


def _running(pid: int) -> bool:
    """Whether a process with this pid exists (perhaps under another user)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def bitgen_address(bit_generator) -> int:
    """Address of a numpy bit generator's `bitgen_t`, the kernel's source
    of draws (what `bit_generator.ctypes.bit_generator` holds, without
    building the rest of that interface)."""
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


def buffer_address(buffer) -> int:
    """Address of the first item of an `array.array`, as the kernel takes
    its buffers."""
    return buffer.buffer_info()[0]


def lgamma_range(lib, start: int, n: int):
    """lgamma(y + 1) for y in [start, start + n), by the kernel `lib`, as a
    ctypes array of n doubles."""
    out = (ctypes.c_double * n)()
    lib.oddball_lgamma(ctypes.addressof(out), start, n)
    return out


def kernel():
    """The compiled kernel library (entry points `oddball_block` and
    `oddball_solve_rows`, and `oddball_lam_odd`, `oddball_lgamma` and
    `oddball_draw` for tests), built once per process under a lock, so
    threads that make the first call at once share one build; None when
    it cannot be built or its lgamma port differs from `math.lgamma` on a
    few probes, so output bytes never depend on which loop ran."""
    with _load_lock:
        if not _loaded:
            try:
                lib = _load()
                got = lgamma_range(lib, 0, _LANES)[:]
                got += [lgamma_range(lib, y, 1)[0] for y in _LGAMMA_PROBES]
                if got != [math.lgamma(y + 1) for y in (*range(_LANES), *_LGAMMA_PROBES)]:
                    raise OSError("its lgamma differs from math.lgamma")
            except OSError as exc:
                sys.stderr.write(
                    f"oddball: compiled trial kernel unavailable ({exc}); using the Python loop\n"
                )
                lib = None
            _loaded.append(lib)
    return _loaded[0]
