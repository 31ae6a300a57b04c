#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Run one workload (from the repository root):

    python3 perfbench/run.py --workload dblp-full --seed 1 --seconds 30 --trace 0

builds perfbench/xksbench.exe and bin/xks.exe with dune, runs the
workload and passes its output through; the last line is the result
object, with the metric names and units of BENCHMARK.json.  Other modes:

    python3 perfbench/run.py collect PARENT_DIR CHANGE_DIR --out runs.jsonl [--runs 10] [--trace]
    python3 perfbench/run.py compare runs.jsonl
    python3 perfbench/run.py selftest
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402  (the benchmark's own module, next to this file)

ROOT = pathlib.Path.cwd()
WORK = pathlib.Path("perfbench") / "_work"
EXE = pathlib.Path("_build") / "default" / "perfbench" / "xksbench.exe"
XKS = pathlib.Path("_build") / "default" / "bin" / "xks.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def benchmark():
    try:
        return compare.benchmark()
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_checkout():
    """The benchmark builds the program from source: refuse to run
    anywhere that is not a checkout of the repository."""
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not (ROOT / need).exists():
            fail(f"{need} not found: run from the root of a repository checkout")


def build():
    cmd = ["dune", "build", "--root", ".", "./" + str(EXE), "./" + str(XKS)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed", 1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from
    checkouts without git history can still be told apart."""
    h = hashlib.sha256()
    files = sorted(
        f for d in ("lib", "bin", "perfbench") for f in (ROOT / d).rglob("*")
        if f.is_file() and (f.suffix in (".ml", ".mli") or f.name == "dune"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "tree-" + source_digest()


def run_workload(workload, seed, seconds, trace, commit):
    """Run xksbench once; returns (exit code, stdout lines)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", str(WORK), "--xks", str(XKS), "--commit", commit]
    # its own session, so a timeout also takes down the server it spawned
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return p.returncode, out.splitlines()


def result_line(raw, bench, trace):
    """The contract's result object from xksbench's last line: every
    metric of the run's kind, by BENCHMARK.json's name and unit.  A
    per-layer metric of a layer the workload never reaches reads 0."""
    catalogue = bench["per_layer"] if trace else bench["end_to_end"]
    known = {m["name"] for m in catalogue}
    extra = sorted(set(raw["metrics"]) - known)
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra), 1)
    metrics = {}
    for m in catalogue:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not trace:
                fail(f"the workload did not report {m['name']}", 1)
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main_run(argv):
    bench = benchmark()
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=compare.workload_names(bench))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    check_checkout()
    build()
    code, lines = run_workload(a.workload, a.seed, a.seconds, a.trace, commit_id())
    if not lines:
        fail(f"{a.workload} printed nothing (exit code {code})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail(f"{a.workload} did not end with a result (exit code {code})", 1)
    print(json.dumps(result_line(raw, bench, a.trace)), flush=True)
    sys.exit(code)


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark run in another checkout, with that checkout's own
    run.py (so each side builds and measures its own code)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                       timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S + 60)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{checkout}: {workload} seed {seed} exited with {p.returncode}", 1)
    info = next((json.loads(x)["info"] for x in lines if x.startswith('{"info"')), {})
    return info, json.loads(lines[-1])


def pair_order(sides, workload_index, seed):
    """Which side of a pair runs first alternates with the seed (and
    the workload), so each goes first in half the pairs."""
    return sides if (workload_index + seed) % 2 == 0 else sides[::-1]


def main_collect(argv):
    """Paired runs of two checkouts.  For each workload and seed 1..runs
    both sides run back to back, and the side that goes first alternates,
    so a drift of the host's speed lands on both sides of every pair."""
    bench = benchmark()
    ap = argparse.ArgumentParser(prog="run.py collect")
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSONL file to append runs to")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="per-layer runs")
    a = ap.parse_args(argv)
    sides = [("parent", a.parent), ("change", a.change)]
    for _, checkout in sides:
        if not (pathlib.Path(checkout) / "perfbench" / "run.py").is_file():
            fail(f"{checkout} is not a checkout with perfbench/run.py")
    with open(a.out, "a") as out:
        for wi, workload in enumerate(compare.workload_names(bench)):
            for seed in range(1, a.runs + 1):
                for side, checkout in pair_order(sides, wi, seed):
                    info, result = run_side(checkout, workload, seed,
                                            bench["run_seconds"], int(a.trace))
                    rec = {"side": side, "workload": workload, "seed": seed,
                           "trace": a.trace, "info": info, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(compare.one_line(rec), flush=True)


def main_selftest(argv):
    del argv
    check_checkout()
    p = subprocess.run(["dune", "build", "--root", ".", "@perfbench/selftest"])
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    sys.exit(0 if ok and p.returncode == 0 else 1)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "collect":
        main_collect(argv[1:])
    elif argv and argv[0] == "compare":
        sys.exit(compare.main(argv[1:]))
    elif argv and argv[0] == "selftest":
        main_selftest(argv[1:])
    else:
        main_run(argv)


if __name__ == "__main__":
    main()
