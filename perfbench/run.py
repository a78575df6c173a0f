"""NetBooster end-to-end benchmark: the entry point.

Run from the repository root::

    python3 perfbench/run.py --workload boost-pipeline --seed 1 --seconds 15 --trace 0

Runs ``perfbench/measure.py`` (see there for the workloads and metrics) in a
child process with the same arguments, and passes its output and exit code
through.  The measurement starts processes of its own: the fleet process, its
replica, and :mod:`multiprocessing`'s resource tracker, which outlives the
process that started it until it has read the end of its pipe.  So this
launcher makes itself the child subreaper: every descendant whose parent exits
first is handed to it, and it returns only once all of them have ended,
killing those still alive ``GRACE_S`` seconds after the measurement exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

MEASURE = Path(__file__).resolve().with_name("measure.py")
PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 10.0


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: only the direct child is waited for


def _children() -> list[int]:
    """Live processes whose parent is this one, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_all(grace_s: float) -> bool:
    """Wait for every descendant; kill the ones left after ``grace_s`` seconds."""
    kill_at = time.monotonic() + grace_s
    give_up = kill_at + grace_s
    while time.monotonic() < give_up:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid:
            continue
        if time.monotonic() >= kill_at:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    print("error: processes left running after the benchmark", file=sys.stderr)
    return False


def main() -> int:
    _become_subreaper()
    child = subprocess.Popen([sys.executable, str(MEASURE), *sys.argv[1:]])

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = child.wait()
    finally:
        reaped = _reap_all(GRACE_S)
    if code < 0:
        return 128 - code
    return code if reaped else 1


if __name__ == "__main__":
    sys.exit(main())
