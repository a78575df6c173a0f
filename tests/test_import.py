"""What importing repro does to a fresh process.

``import repro`` sets numpy's OpenBLAS to one thread, leaves a count the user
chose through the standard variables alone, and a forked child inherits the
setting.  ``import repro.serve`` loads neither the training nor the data
stack.  Each case runs in a new interpreter so the outer environment and the
modules pytest already loaded cannot decide the result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

REPORT = "import repro, repro._blas as b; print(b.threads()); print(b.status())"

FORK_CHILD = """
import multiprocessing
import repro, repro._blas as b

def child(queue):
    queue.put(b.threads())

if __name__ == "__main__":
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    process = ctx.Process(target=child, args=(queue,))
    process.start()
    print(queue.get(timeout=60))
    process.join(timeout=60)
    print(process.exitcode)
"""


def run_fresh(code: str, **env) -> list[str]:
    """Run ``code`` in a new interpreter with no user BLAS variables set."""
    clean = {k: v for k, v in os.environ.items() if k not in USER_VARIABLES}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    clean.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code], env=clean, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split("\n")


def test_import_repro_sets_one_blas_thread():
    threads, status = run_fresh(REPORT)[:2]
    assert threads == "1"
    assert status.endswith(", 1 thread (set by repro)"), status


def test_user_thread_count_is_left_alone():
    threads, status = run_fresh(REPORT, OPENBLAS_NUM_THREADS="2")[:2]
    # OpenBLAS caps its count at the CPUs it may run on
    assert int(threads) == min(2, len(os.sched_getaffinity(0)))
    assert status.endswith("(OPENBLAS_NUM_THREADS=2 set by the user)"), status


def test_forked_child_inherits_one_thread():
    threads, exitcode = run_fresh(FORK_CHILD)[:2]
    assert (threads, exitcode) == ("1", "0")


def test_import_serve_skips_training_and_data_stacks():
    loaded = run_fresh("import sys, repro.serve; print(sorted(sys.modules))")[0]
    assert "'repro.train'" not in loaded and "'repro.data'" not in loaded
