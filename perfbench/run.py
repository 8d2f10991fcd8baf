#!/usr/bin/env python3
"""The repo benchmark: host cost of four single-process vmgrid workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload, untraced then traced

Builds the vmgrid libraries and the workload driver from source (Release)
into .bench_build/ (or $CARGO_TARGET_DIR) under the checkout, runs the
driver, and prints its metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Deterministic
per-layer counts are cached per (workload, seed, driver binary); a later
run whose counts differ is reported as failed. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("swarm_flash", "grid_exact", "grid_fluid", "vm_lifecycle")
BUILD_TIMEOUT_S = 840
BINARY = "vmgrid_perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen([str(c) for c in cmd], start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    path = (ROOT / target).resolve()
    if path != ROOT and ROOT not in path.parents:
        path = ROOT / ".bench_build"  # never write outside the checkout
    return path / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"vmgrid sources not found under {ROOT / 'src'}")
        sys.exit(2)
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                log(f"build step failed ({code}): {' '.join(map(str, cmd))}")
                sys.exit(2)
    return bdir / BINARY


def sha256_of(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance_args():
    sources = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    commit = "none"
    if (ROOT / ".git").exists():
        code, out = run_checked(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if code == 0:
            commit = out.decode().strip()
    return ["--commit", commit, "--source-digest", sha256_of(sources)[:16]]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_drift(bdir, binary, workload, seed, counts):
    """Compares this run's deterministic counts with the first run's."""
    cache = bdir / "counts" / f"{workload}-seed{seed}.json"
    cache.parent.mkdir(parents=True, exist_ok=True)
    digest = sha256_of([binary])
    if cache.is_file():
        prev = json.loads(cache.read_text())
        if prev["binary"] == digest:
            drift = sorted(k for k in set(prev["counts"]) | set(counts)
                           if prev["counts"].get(k) != counts.get(k))
            for k in drift:
                print(f"  [DRIFT] {k}: {prev['counts'].get(k)} -> {counts.get(k)}")
            return not drift
    cache.write_text(json.dumps({"binary": digest, "counts": counts}))
    return True


def run_one(binary, bdir, workload, seed, seconds, trace, extra):
    cmd = [binary, "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", trace, *extra]
    if trace == "1":
        spans = bdir / "spans" / f"{workload}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", spans]
    env = {k: v for k, v in os.environ.items() if not k.startswith("VMGRID_")}
    code, out = run_checked(cmd, 120 + 2 * float(seconds), stdout=subprocess.PIPE, env=env)
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        log(f"driver exited with {code}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("driver result has unexpected keys")
        sys.exit(1)
    if set(result["metrics"]) != declared_metrics(trace == "1"):
        log("driver metrics differ from BENCHMARK.json")
        sys.exit(1)
    counts = next((json.loads(l[len("counts "):]) for l in lines if l.startswith("counts ")), {})
    if not check_drift(bdir, binary, workload, seed, counts):
        result["correct"] = False
        result["failed"] = result["attempted"]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", choices=("0", "1"), default=None)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    binary = build(bdir)
    extra = provenance_args()
    if a.workload != "all":
        result = run_one(binary, bdir, a.workload, str(a.seed), str(a.seconds),
                         a.trace or "0", extra)
        print(json.dumps(result))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in ([a.trace] if a.trace else ["0", "1"]):
            print(f"== {w} --trace {trace}")
            r = run_one(binary, bdir, w, str(a.seed), str(a.seconds), trace, extra)
            merged["correct"] = merged["correct"] and r["correct"]
            merged["attempted"] += r["attempted"]
            merged["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
