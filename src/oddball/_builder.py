"""Build the compiled kernel, `_kernel.c`, into `_native`'s cache.

`_native._load` imports this module only when no valid library is
cached, so a cached load neither imports nor compiles it, nor what a
build runs on (`subprocess`, `tempfile`, `sysconfig`, numpy). The paths
and flags are `_native`'s, read at each call.
"""

from __future__ import annotations

import os
import subprocess
import sysconfig
import tempfile

from . import _native


def includes() -> list[str]:
    """The compiler's include flags for the kernel: Python's and numpy's headers."""
    import numpy as np

    return ["-I", sysconfig.get_paths()["include"], "-I", np.get_include()]


def build(out: str, numpy_dir: str) -> None:
    """Compile the kernel into the file `out` against the numpy in
    `numpy_dir`; raise OSError, with the compiler's first line of errors
    when it fails, when it cannot be built."""
    import numpy as np

    imported = os.path.dirname(np.__file__)
    if not os.path.samefile(imported, numpy_dir):
        raise OSError(f"numpy is imported from {imported}, not {numpy_dir}")
    cmd = [
        "cc", *_native._FLAGS, *includes(), _native._SOURCE,
        os.path.join(numpy_dir, "random", "lib", "libnpyrandom.a"), "-lm", "-o", out,
    ]
    proc = subprocess.run(cmd, capture_output=True)
    if proc.returncode != 0:
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(lines[0] if lines else f"cc exited with status {proc.returncode}")


def seal(path: str, key: str) -> None:
    """Append to the library at `path` the seal `_native._seal` makes of
    `key` and its bytes. The loader ignores trailing bytes; `_native._open`
    checks them, so a truncated or damaged file, or one built from other
    source, is never loaded (loading a truncated library can crash the
    process)."""
    with open(path, "rb") as fh:
        body = fh.read()
    with open(path, "ab") as fh:
        fh.write(_native._seal(key, body))


def running(pid: int) -> bool:
    """Whether a process with this pid exists (perhaps under another user)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def make(path: str, key: str, numpy_dir: str):
    """Build, seal and load the library of `key` against the numpy in
    `numpy_dir`, move it to `path`, then sweep the cache; the loaded
    library, or OSError when it cannot be built or does not load."""
    cache = _native._CACHE_DIR
    os.makedirs(cache, exist_ok=True)
    # The builder's pid in the name tells a later build whether it is still running.
    fd, tmp = tempfile.mkstemp(prefix=f"_kernel.{os.getpid()}.", suffix=".so.tmp", dir=cache)
    os.close(fd)
    try:
        build(tmp, numpy_dir)
        seal(tmp, key)
        # Load from the private name: a library loaded once stays mapped
        # under its path, so reopening `path` could return a stale copy.
        lib = _native._open(tmp, key)
        if lib is None:
            raise OSError("the built library does not load")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    sweep(cache, os.path.basename(path))
    return lib


def sweep(cache: str, keep: str) -> None:
    """Remove from `cache` what nothing loads again: the scope's libraries
    other than `keep`, the libraries of the unscoped layout
    (`_kernel.<key>.so`) and the stamp files of older loaders. Also the
    temporary file of a builder killed mid-build (a signal skips `make`'s
    `finally`), but not one whose builder still runs."""
    scope = f"_kernel.{_native._scope()}."
    for name in os.listdir(cache):
        parts = name.split(".")
        if parts[0] != "_kernel" or name == keep:
            continue
        if name.endswith(".so.tmp"):
            if not parts[1].isdecimal() or running(int(parts[1])):
                continue
        elif not (name.startswith(scope) or parts[2:] == ["so"] or parts[-1] == "stamp"):
            continue
        try:
            os.remove(os.path.join(cache, name))
        except OSError:
            pass
