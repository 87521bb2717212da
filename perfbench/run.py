#!/usr/bin/env python3
"""Build and run the lsds benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own that depends on the repository's crates by path) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload. Prints
the benchmark's human-readable lines, one `meta` JSON line with the host
and build, and as the last line the JSON result. Exits non-zero, without a
result line, if the build or the run fails.
"""

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall-clock limit of the benchmark process itself (the build before it
# is not counted: a first build in a fresh checkout may take minutes).
RUN_LIMIT_S = 170.0


def capture(cmd):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip().splitlines()[0] if out.stdout.strip() else ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def meta(args):
    sha = capture(["git", "rev-parse", "HEAD"])
    dirty = capture(["git", "status", "--porcelain", "--untracked-files=no"])
    return {
        "workload": args["--workload"],
        "seed": int(args["--seed"]),
        "seconds": float(args["--seconds"]),
        "trace": args["--trace"] == "1",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": capture(["rustc", "-V"]),
        "git_sha": sha,
        # no git checkout (e.g. an exported tree): dirtiness is unknown
        "git_dirty": None if sha == "unknown" else dirty != "",
    }


def parse(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            sys.exit(f"run.py: unknown argument {flag}")
        value = next(it, None)
        if value is None:
            sys.exit(f"run.py: {flag} needs a value")
        args[flag] = value
    if args["--workload"] is None:
        sys.exit("run.py: --workload is required")
    return args


def main():
    args = parse(sys.argv[1:])
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "lsds-perfbench")
    cmd = [exe]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    info = meta(args)
    # glibc slides its mmap threshold up as large blocks are freed, so
    # whether a growing Vec is remapped or copied (and so peak RSS and wall
    # time) depends on the allocation history of the process. Pinning the
    # threshold at its default start value makes both repeatable.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    info["env"] = {"MALLOC_MMAP_THRESHOLD_": run_env["MALLOC_MMAP_THRESHOLD_"]}
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=run_env, capture_output=True, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        sys.exit(f"run.py: benchmark exceeded {RUN_LIMIT_S:.0f} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"run.py: benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"meta": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
