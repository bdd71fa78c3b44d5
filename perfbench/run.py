#!/usr/bin/env python3
"""Build and run the benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay-stems --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the `stems-serve` daemon (from the
repository's workspace) and this directory's `perfbench` package, both in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
`perfbench`. Build output goes to standard error; the last line of standard
output is the run's JSON result. See README.md in this directory.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
# What the measured program is built from; the digest keys the benchmark's
# record of deterministic counts, so a changed program starts a new record.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml", "perfbench/src"]


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "nogit"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return out.stdout.strip() or "nogit"


def build(args, env):
    result = subprocess.run(["cargo", "build", "--release", "--offline", *args], cwd=ROOT,
                            env=env, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [s for s in SOURCES if not (ROOT / s).exists()]
    if missing:
        fail(f"not a checkout of the repository (missing {', '.join(missing)})")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(["-p", "stems-server", "--bin", "stems-serve"], env)
    build(["--manifest-path", str(HERE / "Cargo.toml")], env)

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", str(target / "release" / "stems-serve"),
        "--root", str(ROOT),
        "--rev", f"{git_rev()}-src{source_digest()}",
    ]
    sys.stdout.flush()
    # A session of its own, so a timeout can stop the daemon with it.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench ran past {RUN_TIMEOUT_S} s; stopping it", file=sys.stderr)
        code = 124
    finally:
        if child.poll() is None:
            # Stops perfbench and the daemon it started, which shares its
            # process group, and removes the scratch it could not.
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            shutil.rmtree(ROOT / ".perfbench_work" / str(child.pid), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
