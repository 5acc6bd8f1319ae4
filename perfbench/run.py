#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs one workload, and passes its
output through: a manifest line, the workload's results and correctness
gates, and as the last line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run, whose spans are written
under .perfbench-out/.  Exits non-zero, without a result line, when the
checkout lacks the sources, the build fails or the run does not finish.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["lb-field", "serve-mac", "scale-dual", "scale-sinr"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# A cold build may take most of the first run's 900 s allowance; a run
# whose build was a no-op must finish within 180 s.
BUILD_TIMEOUT_S = 700
COLD_BUILD_S = 60
DEADLINE_COLD_S = 890
DEADLINE_WARM_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def toolchain_env():
    """The environment for dune, with an opam switch's bin directory on
    PATH when dune is not already there."""
    env = dict(os.environ)
    if shutil.which("dune") is None:
        candidates = []
        prefix = env.get("OPAM_SWITCH_PREFIX")
        if prefix:
            candidates.append(os.path.join(prefix, "bin"))
        candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin")))
        for bindir in candidates:
            if os.path.exists(os.path.join(bindir, "dune")):
                env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
                break
    return env


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it.  Returns the
    CompletedProcess, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def capture(cmd, env):
    try:
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=5
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_rev(env):
    # Never look above the checkout: it need not be a repository itself.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    return capture(["git", "rev-parse", "HEAD"], env) or "none"


def source_digest():
    """SHA-256 over the library, executable and benchmark sources: names
    the code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = []
    for top in ("lib", "bin", "perfbench"):
        for root, _, names in os.walk(top):
            files += [
                os.path.join(root, f)
                for f in names
                if f.endswith((".ml", ".mli")) or f == "dune"
            ]
    for path in sorted(files + ["dune-project"]):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def flambda(env):
    config = capture(["ocamlfind", "ocamlopt", "-config"], env) or capture(
        ["ocamlopt", "-config"], env
    )
    for line in (config or "").splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)

    start = time.monotonic()
    env = toolchain_env()
    if shutil.which("dune", path=env.get("PATH")) is None:
        fail("dune is not installed")
    build = run_group(
        ["dune", "build", "--root", ".", "./" + EXE],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build is None:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    cold = time.monotonic() - start > COLD_BUILD_S
    deadline = start + (DEADLINE_COLD_S if cold else DEADLINE_WARM_S)

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--git-rev", git_rev(env),
        "--source-digest", source_digest(),
        "--flambda", flambda(env),
    ]
    run = run_group(
        cmd,
        max(1.0, deadline - time.monotonic()),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if run is None:
        fail("run did not finish in time", 1)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stderr.write(run.stdout)
        fail("the run printed no result (exit %d)" % run.returncode, 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
