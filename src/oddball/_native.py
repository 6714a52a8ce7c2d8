"""Build and load the compiled kernel, `_kernel.c`: the trial loop and the solve.

The kernel is compiled on first use, never at import, into the package's
`__pycache__` directory as `_kernel.<scope>.<key>.so`. The scope names
the interpreter by `sys.implementation.cache_tag`, as a `.pyc` is named,
and the compiler flags by a CRC-32. The key spells out the mtime and
size of `_kernel.c` and of numpy's `version.py` in hex, then a CRC-32 of
numpy's directory, the Python version and the flags: like a `.pyc`, a
`touch` rebuilds once, and an edit that keeps the size within the file
system's mtime granularity is not seen. numpy's directory is the
imported numpy's, else the first on `sys.path`, so a load imports
neither numpy nor what a build runs on (`subprocess`, `tempfile`,
`sysconfig`): a build is `_builder`'s, a module imported only on a cache
miss, and a build against another numpy than the key names fails. The
kernel links numpy's own `libnpyrandom.a`, so its draws are the ones a
`Generator` makes. A build goes to a temporary name, moved into place
with `os.replace`, so a concurrent reader never sees half a file.

Each library ends in a seal (`_seal`): the length of the bytes before
it and a CRC-32 of its key and those bytes. One whose seal does not
match (truncated, damaged, or built from other source) is rebuilt,
never loaded. A file cut short is caught by the length, which its new
last bytes would have to spell along with a matching CRC; other damage
is caught with probability 1 - 2^-32. The seal is no guard against
tampering, and the SHA-256 it replaced was none either: a digest
without a secret can be recomputed by whoever can write the cache. Key
and seal need only `zlib`, as the scope does, so neither an import nor
a load brings in `hashlib` and OpenSSL.

When the kernel cannot be built (no compiler, an unwritable cache, a
failed link: each an OSError, a failed compile one that carries the
compiler's first line of errors), `kernel()` returns None, one note goes
to stderr, and callers run the Python loops. A new build removes the
scope's libraries of other keys, the unscoped `_kernel.<key>.so` and
`.stamp` files of older loaders, and the temporary files of builders no
longer running, whose pid each temporary name carries; the libraries of
other scopes stay.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
import zlib
from array import array

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

# The probe as ranges of y: the lane group, then each probe alone.
_PROBE_RANGES = ((0, _LANES), *zip(_LGAMMA_PROBES, [1] * len(_LGAMMA_PROBES)))

# Bytes of the seal that ends each cached library (see `_seal`).
_SEAL_SIZE = 12

# The loaded kernel, once `kernel()` has run in this process: [library or None].
_loaded: list = []
_load_lock = threading.Lock()


def _scope() -> str:
    """The part of a cached file's name that tells the builds of this
    interpreter and these flags from those of others sharing the cache."""
    return f"{sys.implementation.cache_tag}-{zlib.crc32(' '.join(_FLAGS).encode()):08x}"


def _library(key: str) -> str:
    """Path of the cached library of `key`."""
    return os.path.join(_CACHE_DIR, f"_kernel.{_scope()}.{key}.so")


def _numpy_dir() -> str:
    """Directory of the numpy package the interpreter imports: the one
    already imported, else the first `sys.path` entry holding
    `numpy/__init__.py`, which is where `find_spec` finds it (a bare
    `numpy` directory is skipped, as `find_spec` skips it)."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return os.path.dirname(numpy.__file__)
    for entry in sys.path:
        where = os.path.join(entry or os.getcwd(), "numpy")
        if os.access(os.path.join(where, "__init__.py"), os.F_OK):
            return where
    raise OSError("numpy is not installed")


def _key(numpy_dir: str) -> str:
    """Cache key of the kernel this interpreter builds from `_kernel.c`
    against the numpy in `numpy_dir`: the mtime and size of `_kernel.c`
    and of numpy's `version.py` in hex, then a CRC-32 of numpy_dir, the
    Python version and the flags, joined by "-". Like a `.pyc`, it trusts
    an unchanged stat."""
    src, ver = os.stat(_SOURCE), os.stat(os.path.join(numpy_dir, "version.py"))
    where = zlib.crc32(f"{numpy_dir}|{sys.version}|{' '.join(_FLAGS)}".encode())
    return f"{src.st_mtime_ns:x}-{src.st_size:x}-{ver.st_mtime_ns:x}-{ver.st_size:x}-{where:08x}"


def _seal(key: str, body) -> bytes:
    """The seal that ends the library of `key` whose bytes before it are
    `body` (a bytes-like object): len(body) in 8 bytes, then the CRC-32 of
    the key's text and the body in 4, both little-endian. `_open` checks
    it, `_builder.seal` writes it."""
    crc = zlib.crc32(body, zlib.crc32(key.encode()))
    return len(body).to_bytes(8, "little") + crc.to_bytes(4, "little")


def _read(path: str) -> bytes:
    """The bytes of the file at `path`, read without a buffered file object,
    which costs more than the read itself in a freshly forked process."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _open(path: str, key: str):
    """The sealed kernel library at `path` with its entry points typed, or
    None when the file is missing, does not carry the seal of `key`, or
    does not load."""
    try:
        data = _read(path)
        if data[-_SEAL_SIZE:] != _seal(key, memoryview(data)[:-_SEAL_SIZE]):
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
    lib.oddball_lgamma.argtypes = [ptr, ptr, i64]
    lib.oddball_lgamma.restype = None
    lib.oddball_draw.argtypes = [ptr, i64, ptr, ptr, i64, ctypes.c_double, i64, ptr]
    lib.oddball_draw.restype = None
    return lib


def _load():
    numpy_dir = _numpy_dir()
    key = _key(numpy_dir)  # before any build, so an edit during one shows as a new key
    path = _library(key)
    lib = _open(path, key)
    if lib is None:
        from . import _builder  # only a miss compiles, or even imports, the build

        lib = _builder.make(path, key, numpy_dir)
    return lib


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


def lgamma_ranges(lib, *ranges: tuple[int, int]):
    """lgamma(y + 1) for y in [start, start + n) of each (start, n) of
    `ranges`, one range after another, by the kernel `lib` in one call, as
    an `array('d')`."""
    bounds = array("q", sum(ranges, ()))
    out = array("d", bytes(8 * sum(bounds[1::2])))
    lib.oddball_lgamma(buffer_address(out), buffer_address(bounds), len(ranges))
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
                got = lgamma_ranges(lib, *_PROBE_RANGES).tolist()
                if got != [math.lgamma(y + 1) for y in (*range(_LANES), *_LGAMMA_PROBES)]:
                    raise OSError("its lgamma differs from math.lgamma")
            except OSError as exc:
                sys.stderr.write(
                    f"oddball: compiled trial kernel unavailable ({exc}); using the Python loop\n"
                )
                lib = None
            _loaded.append(lib)
    return _loaded[0]
