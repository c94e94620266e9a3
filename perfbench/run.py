"""simplexuq benchmark: whole rounds of one workload for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports the package from
``src/``. Each round is one process (see `workload.py`), so set-up time,
wall time and peak memory belong to that round alone. Rounds start until
``--seconds`` have passed; the last one runs to its end. With ``--trace 0``
the last line of standard output is a JSON object holding the median of
each end-to-end metric over the rounds; with ``--trace 1`` rounds alternate
untraced and traced, the object holds the median of each per-layer metric
over the traced rounds, and ``trace.overhead_s`` is the traced median wall
time minus the untraced one. The line before it records the environment.
Spans, per-round figures and the environment go to ``.perfbench/<workload>/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import self_times

WORKLOADS = ("image-spatial", "image-dirac", "pixel-multimodal", "gap-fill")

END_TO_END = {"setup_s": "s", "wall_s": "s", "ess_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "run.import_s": "s",
    "synth.generate_s": "s",
    "prior.build_gram_s": "s",
    "prior.gram_bytes": "B",
    "prior.solve_ms": "ms",
    "prior.solve_flops": "flop",
    "geometry.softmax_ms": "ms",
    "sampler.sample_s": "s",
    "sampler.steps": "count",
    "sampler.kept": "count",
    "sampler.step_us": "us",
    "sampler.state_ms": "ms",
    "sampler.misfit_ms": "ms",
    "sampler.loop_us": "us",
    "sampler.keep_ms": "ms",
    "sampler.chain_bytes": "B",
    "sampler.ess_median": "count",
    "sampler.ess_min": "count",
    "uq.summarize_s": "s",
    "uq.hdr_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "io.files_written": "count",
    "interp.interpolate_s": "s",
    "interp.observed": "count",
    "interp.predicted": "count",
    "trace.overhead_s": "s",
}

# A whole run, its last round included, must end well inside 180 s.
DEADLINE_S = 170.0

# One BLAS thread per round. On a 2-core machine shared with other work, a
# second thread made every BLAS call wait for whichever core was busy: over
# five seeds the spread of wall_s on image-dirac was 7.6 % with two threads
# and 2.8 % with one, and the dense solve was no faster.
BLAS_THREADS = "1"


def git_commit(root):
    """Commit of a checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest(pkg):
    """sha256 over the package's .py files, so runs outside git stay traceable."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_round(args, env, work, rnd, traced, deadline):
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload.py")
    t0 = time.monotonic()
    cmd = [sys.executable, script, args.workload, str(args.seed), str(rnd), repr(t0), out, "1" if traced else "0"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: round {rnd} of {args.workload} exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res.update(round=rnd, traced=traced)
    return res


def median(rounds, section, key):
    return statistics.median(r[section][key] for r in rounds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "simplexuq")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit("perfbench: no src/simplexuq here; run from the root of a simplexuq source tree")

    nproc = len(os.sched_getaffinity(0))
    threads = {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=src, **threads)
    work = os.path.join(root, ".perfbench", args.workload)
    os.makedirs(work, exist_ok=True)

    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, env, work, len(rounds), traced, start + DEADLINE_S))
        done = time.monotonic() - start >= args.seconds
        if done and (not args.trace or len(rounds) % 2 == 0):
            break
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    ok = [r for r in rounds if not r["failed"]]
    if not ok:
        raise SystemExit(f"perfbench: every round of {args.workload} failed: {rounds[0].get('error')}")
    for r in ok:
        for msg in r["checks"]:
            print(f"perfbench: round {r['round']} check failed: {msg}", file=sys.stderr)

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        plain = [r for r in ok if not r["traced"]]
        if not traced or not plain:
            raise SystemExit("perfbench: need one traced and one untraced round that succeeded")
        values = {k: median(traced, "layers", k) if k in traced[0]["layers"] else 0.0 for k in PER_LAYER}
        values["trace.overhead_s"] = median(traced, "end_to_end", "wall_s") - median(plain, "end_to_end", "wall_s")
        units = PER_LAYER
    else:
        values = {k: median(ok, "end_to_end", k) for k in END_TO_END}
        units = END_TO_END

    environment = dict(
        ok[0]["environment"],
        nproc=nproc,
        blas_threads=threads,
        git_commit=git_commit(root),
        source_sha256=source_digest(pkg),
    )
    for r in rounds:
        for s, own in zip(r.get("spans", []), self_times(r.get("spans", []))):
            s["self"] = own
    tag = f"seed{args.seed}-trace{args.trace}"
    with open(os.path.join(work, f"{tag}.json"), "w") as fh:
        json.dump({"environment": environment, "rounds": rounds}, fh)
    print(json.dumps({"environment": environment}))
    print(
        json.dumps(
            {
                "correct": all(not r["checks"] for r in ok),
                "attempted": len(rounds),
                "failed": len(rounds) - len(ok),
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )


if __name__ == "__main__":
    main()
