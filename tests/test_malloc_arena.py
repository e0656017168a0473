"""Every thread of a process that imports vnact allocates from one arena.

``evaluate`` scores parts of a batch on a second thread. Left to glibc's
default, that thread's first ``malloc`` gives it an arena of its own,
whose pages nothing has touched yet and whose free blocks the main thread
cannot reuse; importing ``vnact.tensor`` sets ``M_ARENA_MAX`` to 1, so
the thread allocates from the main arena. ``malloc_info`` lists one
``<heap>`` element per arena.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# A worker thread allocates and frees a 4 MiB array, then the process writes
# malloc_info to argv[1]. With argv[2] == "pin" it imports vnact first.
ALLOCATE = """
import ctypes, sys, threading
import numpy as np
if sys.argv[2] == "pin":
    import vnact

def work():
    a = np.ones(1 << 19)
    del a

worker = threading.Thread(target=work)
worker.start()
worker.join()
libc = ctypes.CDLL(None)
libc.fopen.argtypes, libc.fopen.restype = (ctypes.c_char_p, ctypes.c_char_p), ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
out = libc.fopen(sys.argv[1].encode(), b"w")
assert out
assert libc.malloc_info(0, out) == 0
libc.fclose(out)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _heaps(tmp_path, mode: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    path = tmp_path / f"{mode}.xml"
    proc = subprocess.run([sys.executable, "-c", ALLOCATE, str(path), mode], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return path.read_text().count("<heap nr=")


@pytest.mark.skipif(not _glibc(), reason="the arena pin applies to glibc only")
def test_a_worker_thread_allocates_from_the_main_arena(tmp_path):
    """Pinned, malloc_info lists exactly one heap after the worker's array;
    without vnact imported, the same script lists a second one."""
    assert _heaps(tmp_path, "pin") == 1
    assert _heaps(tmp_path, "none") > 1
