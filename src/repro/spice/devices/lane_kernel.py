"""The compiled lane kernel of :class:`~repro.spice.devices.mosfet.MosfetBank`.

``mosfet_lanes.c`` is the arithmetic of ``MosfetBank.stamp_iteration`` as
one small C function.  It is built the first time a bank is constructed
(never at import) with the platform C compiler (``$CC``, else the ``CC``
Python was configured with) and :data:`FLAGS`, into this package's own
``__pycache__``: written under a temporary name there and renamed into
place, so concurrent builders never expose a partial library.  The file
name carries a hash of the source, the compiler command, the flags and
the interpreter's ``EXT_SUFFIX``, so a changed source or toolchain builds
afresh and a stale library is never loaded.  It is loaded with
:mod:`ctypes`.

``-ffp-contract=off`` (and no ``-ffast-math`` or ``-march``) keeps the
compiler from fusing a multiply and an add or reassociating, so the kernel
computes every float the numpy lane code computes.  Where no compiler
works or ``__pycache__`` is not writable, :func:`load` returns ``None`` and
the banks run the numpy lane code; ``MosfetBank.kernel_name`` says which
kernel a bank runs (``TransientResult.stats["device_kernel"]``).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

# hashlib, shlex, subprocess, sysconfig and tempfile are imported where a
# build needs them: importing the package must not pay for them.

#: Compiler flags of the kernel library.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("mosfet_lanes.c")
#: A build that takes longer than this is abandoned (numpy lanes).
BUILD_TIMEOUT_S = 120.0

#: Per-lane float constants of a bank, in the order of the C ``Bank``.
LANE_CONSTANTS = ("pol", "beta", "half_beta", "lam", "vto", "gamma",
                  "neg_gamma", "phi", "two_phi", "sqrt_phi",
                  "neg_gamma_sqrt_phi")


class Lanes(ctypes.Structure):
    """The C ``Bank``: a bank's lane count and constant arrays."""

    _fields_ = ([("n", ctypes.c_int64), ("zero_cutoff_gmbs", ctypes.c_int64),
                 ("gather", ctypes.c_void_p), ("stamp_pos", ctypes.c_void_p)]
                + [(name, ctypes.c_void_p) for name in LANE_CONSTANTS])


_UNTRIED = object()
_kernel = _UNTRIED


def compiler() -> list:
    """The C compiler command: ``$CC``, else the ``CC`` of the build of
    the running interpreter (empty: none known)."""
    import shlex
    import sysconfig

    return shlex.split(os.environ.get("CC")
                       or sysconfig.get_config_var("CC") or "")


def library_path(command: list) -> Path:
    """Where the library built by ``command`` is cached."""
    import hashlib
    import sysconfig

    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), *(part.encode() for part in command),
         *(flag.encode() for flag in FLAGS),
         str(sysconfig.get_config_var("EXT_SUFFIX")).encode()])).hexdigest()
    return SOURCE.parent / "__pycache__" / f"mosfet_lanes.{key[:20]}.so"


def _build(command: list, library: Path) -> None:
    import subprocess
    import tempfile

    library.parent.mkdir(exist_ok=True)
    handle, partial = tempfile.mkstemp(prefix=library.stem + ".",
                                       suffix=".partial", dir=library.parent)
    os.close(handle)
    try:
        subprocess.run([*command, *FLAGS, "-o", partial, str(SOURCE), "-lm"],
                       check=True, capture_output=True,
                       timeout=BUILD_TIMEOUT_S)
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load():
    import subprocess

    command = compiler()
    if not command:
        return None
    try:
        library = library_path(command)
        if not library.exists():
            _build(command, library)
        function = ctypes.CDLL(str(library)).stamp_lanes
    except (OSError, subprocess.SubprocessError):
        return None
    pointer = ctypes.c_void_p
    function.argtypes = [ctypes.POINTER(Lanes), pointer, pointer, pointer,
                         ctypes.c_double, pointer, pointer, pointer]
    function.restype = None
    return function


def load():
    """The ``stamp_lanes`` function of the kernel library, built first if
    it is not cached yet; ``None`` where that fails.  Tried once per
    process."""
    global _kernel
    if _kernel is _UNTRIED:
        _kernel = _load()
    return _kernel


def bind(count: int, zero_cutoff_gmbs: bool, gather, stamp_pos,
         constants) -> object:
    """The kernel's first argument for a bank of ``count`` lanes: the
    int64 arrays ``gather`` and ``stamp_pos`` and the float64
    ``constants`` in :data:`LANE_CONSTANTS` order, all C-contiguous.  The
    caller keeps the arrays alive as long as it uses the argument."""
    return ctypes.byref(Lanes(
        count, zero_cutoff_gmbs,
        *[array.ctypes.data for array in (gather, stamp_pos, *constants)]))


def buffer(array):
    """``array``'s memory as a kernel argument (C-contiguous, writable).

    Cheaper than ``array.ctypes.data``, and the argument keeps the array
    alive for the call."""
    return ctypes.byref(ctypes.c_char.from_buffer(array))
