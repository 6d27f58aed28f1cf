#!/usr/bin/env python3
"""Tick-latency benchmark for maintained views.

Run from the root of a checkout:

    python3 tickbench/run.py --workload views-trickle --seed 1 --seconds 10 --trace 0

The first run builds the benchmark (tickbench/build.sbt compiles the
repository's library sources with the driver in tickbench/src) and caches
the classpath under .bench_build/; later runs reuse it until a source file
changes. Each run starts one JVM with pinned Spark settings, forwards its
report, and ends with the JSON result line. Traced runs (--trace 1) also
write every span to .bench_build/trace/. `--selftest` instead runs the
correctness gate's self-test: one corrupted delta must be counted.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("views-trickle", "closure")
# Driver heap, pinned so that no environment default (SparkSpec falls back
# to 48g) changes the GC behaviour being measured.
HEAP = "4g"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def build():
    """Compile if any source changed; return the runtime classpath."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        sys.exit("tickbench: no library sources under src/main/scala/repro; run from a checkout root")
    if not os.environ.get("SPARK_HOME"):
        sys.exit("tickbench: SPARK_HOME must name the Spark 4 distribution to build against")
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    key = digest.hexdigest()
    cp_file, key_file = BUILD / "classpath.txt", BUILD / "classpath.key"
    if key_file.exists() and key_file.read_text() == key and cp_file.exists():
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", "-Dsbt.offline=true"),
                                f"-Dsbt.global.base={BUILD / 'sbt-global'}",
                                f"-Djava.io.tmpdir={BUILD / 'tmp'}"])
    (BUILD / "tmp").mkdir(exist_ok=True)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("tickbench: build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:])
        sys.exit(f"tickbench: build failed ({out.returncode})")
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out.stdout[-4000:])
        sys.exit("tickbench: build printed no classpath")
    cp_file.write_text(lines[-1])
    key_file.write_text(key)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    cp = build()
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *JAVA_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={BUILD / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={BUILD / 'spark-warehouse'}",
           f"-Dtickbench.traceDir={BUILD / 'trace'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", cp, "tickbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)] + (["--selftest"] if a.selftest else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"tickbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit(f"tickbench: run failed ({proc.returncode})")
    if a.selftest:
        sys.stdout.write(out)
        return
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        sys.exit("tickbench: run printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
