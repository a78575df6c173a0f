"""One BLAS thread per process.

numpy's bundled OpenBLAS starts a worker thread per core.  For about the
first second of a fresh process that worker busy-waits, and on a small
shared host it lands on the main thread's core: the expanded giant's first
train steps then run ~2.5x slower, and steady-state throughput gains nothing
from the second thread.  Importing :mod:`repro` therefore sets numpy's
OpenBLAS to one thread.  The setting is process-wide, so engine worker
threads share it, forked children inherit it, and spawned children set it
again when they import :mod:`repro`.

A count the user chose through ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is left alone, as is a numpy linked against anything but
a known OpenBLAS; :func:`status` (the ``blas:`` line of every engine's
``describe()``) says which case holds.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# (prefix, suffix) of the OpenBLAS entry points, in the order they are tried:
# numpy's scipy-openblas wheels, other 64-bit-integer builds, plain builds.
_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
_USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _library_path() -> str | None:
    """Path of the OpenBLAS that numpy has loaded (or ships), if any."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.rstrip("\n").split(maxsplit=5)  # the path may hold spaces
                path = fields[5] if len(fields) == 6 else ""
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    shipped = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    return shipped[0] if shipped else None


def _entry_points():
    """``(set_num_threads, get_num_threads, get_config)`` or ``None``."""
    path = _library_path()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in _SYMBOLS:
        names = [f"{prefix}{verb}{suffix}" for verb in ("set_num_threads", "get_num_threads", "get_config")]
        if all(hasattr(lib, name) for name in names):
            setter, getter, config = (getattr(lib, name) for name in names)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return setter, getter, config
    return None


def _configure(entry) -> str:
    """Set one BLAS thread unless the user chose a count; returns why."""
    if entry is None:
        return "untouched: numpy loaded no known OpenBLAS"
    for variable in _USER_VARIABLES:
        if os.environ.get(variable):
            return f"{variable}={os.environ[variable]} set by the user"
    entry[0](1)
    return "set by repro"


def threads() -> int | None:
    """Current thread count of numpy's OpenBLAS (``None`` if none was found)."""
    return None if _ENTRY is None else int(_ENTRY[1]())


def status() -> str:
    """One line: BLAS library, its live thread count and who chose it."""
    if _ENTRY is None:
        return _REASON
    library = " ".join((_ENTRY[2]() or b"OpenBLAS").decode(errors="replace").split()[:2])
    count = threads()
    return f"{library}, {count} thread{'s' if count != 1 else ''} ({_REASON})"


_ENTRY = _entry_points()
_REASON = _configure(_ENTRY)
