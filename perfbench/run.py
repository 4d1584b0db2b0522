#!/usr/bin/env python3
"""Benchmark entry point.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `dca` CLI and the benchmark executable with dune (inside the
checkout, shared dune cache off), then runs one workload.  The last line
of standard output is the JSON result; the exit code is non-zero on any
correctness failure, build failure or timeout.  Workloads: registry-par and
generated, which BENCHMARK.json gates, and registry-seq and serve-edit, which
run the same way by hand (see perfbench/NOTES.md).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["registry-seq", "registry-par", "generated", "serve-edit"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/dca_cli.exe", "./perfbench/bin/perfbench.exe"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.md5()
    for top in ["lib", "bin", "perfbench"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(root, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout or exit, nothing it
    started is left running."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def forward(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, forward)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for need in ["dune-project", "lib", "bin"]:
        if not os.path.exists(need):
            die(f"run from the root of a dca source checkout ({need} is missing)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    code = run_group(["dune", "build", "--root", ".", *TARGETS], BUILD_TIMEOUT_S,
                     env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        die("build failed" if code is not None else "build timed out", 3)
    print(f"build: {time.monotonic() - t0:.1f} s", file=sys.stderr)

    cmd = [
        "_build/default/perfbench/bin/perfbench.exe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--dca", "_build/default/bin/dca_cli.exe",
        "--refs", "perfbench/refs", "--work", ".perfbench", "--commit", source_id(),
    ]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code is None:
        die(f"workload {args.workload} timed out after {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
