#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it with `KINET_THREADS` capped at the
machine's core count, and passes its output through. With `--trace 0` the
final JSON line gains `peak_rss_mb`, the benchmark process's resident-set
high-water mark. Build output goes to stderr so that the last line of
stdout is always the result. Exits non-zero, without a result line, when
the build or the run fails.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    nproc = os.cpu_count() or 1
    try:
        threads = int(env.get("KINET_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["KINET_THREADS"] = str(max(1, min(threads, nproc)))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    # wait4 reports this child's own resource usage, so the peak RSS is the
    # benchmark's and not cargo's.
    child = subprocess.Popen([binary] + args, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, child.kill)
    watchdog.start()
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    watchdog.cancel()
    code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: run failed with exit code {code}")

    result = json.loads(lines[-1])
    if "--trace" not in args or args[args.index("--trace") + 1] == "0":
        peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        lines.insert(-1, f"metric peak_rss_mb = {peak_mb} MB")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))

if __name__ == "__main__":
    main()
