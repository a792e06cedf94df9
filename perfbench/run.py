#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload tdh_batch --seed 0 --trace 0 [--seconds 40]

Builds the program and the benchmark from source with sbt when the
sources changed since the last build (the first run in a checkout), then
runs the driver in one JVM. The driver's last line of standard output is the
result JSON; its log goes to .bench_build/logs/. The length of a run
defaults to run_seconds of BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORKLOADS = ["tdh_batch", "crowd_eai"]

# A fixed, pre-touched heap and the throughput collector keep collection cost
# from varying with heap resizing. 3 GB holds every workload, Spark's included.
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC"]
# A 64 MB young generation keeps the batch EM's short-lived arrays in cache,
# which made its op times steadier from one JVM to the next. The
# crowd loop keeps the default young generation: there 64 MB was no steadier
# and made the op about 7% slower (median of nine paired runs), time spent in
# collections.
YOUNG_GEN = {"tdh_batch": ["-Xmn64m"], "crowd_eai": []}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads: the program's and the benchmark's."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        if d.is_dir():
            files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def fingerprint(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_logged(cmd, cwd, log, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"{cmd[0]} timed out after {timeout} s; see {log}")
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out


def classpath():
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources (build.sbt, src/main/scala) under {ROOT}")
    files = source_files()
    stamp = fingerprint(files)
    cp_file = BUILD / "classpath.txt"
    if cp_file.is_file():
        lines = cp_file.read_text().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    (BUILD / "logs").mkdir(parents=True, exist_ok=True)
    log = BUILD / "logs" / "build.log"
    print("perfbench: building with sbt ...", file=sys.stderr)
    code, out = run_logged(["sbt", "-batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                           BENCH, log, BUILD_TIMEOUT_S)
    with open(log, "a") as f:
        f.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (exit {code}); see {log}")
    cp_file.write_text(f"{stamp}\n{lines[-1].strip()}\n")
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    cp = classpath()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    work = BUILD / "run"
    tmp = BUILD / "tmp"
    logs = BUILD / "logs"
    for d in (work, tmp, logs):
        d.mkdir(parents=True, exist_ok=True)
    log = logs / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    cmd = ["java", *JVM_OPTS, *YOUNG_GEN[args.workload], f"-Djava.io.tmpdir={tmp}", "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    code, out = run_logged(cmd, ROOT, log, RUN_TIMEOUT_S)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write("".join(open(log).readlines()[-30:]))
        fail(f"{args.workload} exited with {code}; see {log}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
