#!/usr/bin/env python3
"""End-to-end benchmark of the swsample library.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) in Release under
.bench_build/perfbench, then runs one workload of the perfbench binary from
the repository root. Build output goes to stderr; the binary's last stdout
line is the JSON result. Exits non-zero without a result when the build
fails, e.g. when src/ is absent.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Where the binary puts its per-run scratch directory, perfbench-<pid>.
SCRATCH_BASES = ("/dev/shm", os.path.join(ROOT, ".bench_build", "scratch"))


def build():
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)

    def forward(signum, _frame):
        proc.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, forward)
    code = proc.wait()
    # The binary removes its scratch itself; this covers a run that died.
    for base in SCRATCH_BASES:
        shutil.rmtree(os.path.join(base, "perfbench-%d" % proc.pid),
                      ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
