#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload exact_greedy --seed 1 --seconds 15 --trace 0

Run it from the root of the checkout. The first run builds the program and
the benchmark from source with sbt (offline) and caches the classpath under
perfbench/target; later runs reuse the build until a source file changes.
The benchmark then runs in its own JVM. Its standard output ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. Build and Spark
logs go to standard error. Per-run records land in perfbench/target/runs.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "classpath.stamp")
WORKLOADS = ("exact_greedy", "walk_select", "win_search")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 800
HEAP = "3g"

JAVA_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads: build definitions and Scala sources."""
    skip = {"target", ".git", ".bench_build", ".bsp", ".idea"}
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in skip)
        for f in sorted(files):
            if f.endswith((".scala", ".sbt", ".properties", ".java")):
                yield os.path.join(base, f)


def source_hash():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none"


def build(stamp):
    """Compile with sbt and cache the runtime classpath; returns it."""
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true -Dsbt.server.forcestart=false").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        fail("build failed (sbt output above)", 3)
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(cp + "\n")
    with open(STAMP, "w") as fh:
        fh.write(stamp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no program to benchmark: {need} is missing from {ROOT}")

    stamp = source_hash()
    cp = build(stamp)
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JAVA_OPENS]
           + [f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.localDir={tmp}",
              f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceHash={stamp}",
              "-cp", cp, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
