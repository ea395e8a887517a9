#!/usr/bin/env python3
"""Build and run the replisim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/replibench.exe with dune from the sources of the checkout
this file sits in, then runs it with the given arguments. The last line of
standard output is the JSON result. A missing source tree, a failed build,
a harness error, a broken schedule-identity check or a run longer than
TIMEOUT_S exits non-zero without printing a result. See README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "replibench.exe")
TIMEOUT_S = 170


def build():
    """Build the harness; return an error message or None."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return "no replisim sources next to perfbench/ (missing %s)" % needed
    try:
        # --cache=disabled keeps every build output inside the checkout.
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "./perfbench/replibench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        return "cannot run dune: %s" % e
    if done.returncode != 0:
        return "dune build failed (exit %d)" % done.returncode
    return None


def run(args, timeout=TIMEOUT_S, stdout=None):
    """Run the built harness in its own process group; return its exit
    code, killing the whole group on timeout or interruption."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=stdout,
                            start_new_session=True)

    def kill(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *_: (kill(), sys.exit(143)))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill()
        print("run.py: benchmark exceeded %d s, stopped" % timeout,
              file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        kill()
        return 130


def main(argv):
    err = build()
    if err:
        print("run.py: " + err, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
