"""Benchmark for the cmtwist CLI: seeded job streams, checked reports.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload field-ladder --seed 1 --seconds 35 --trace 0

Each pass spawns a fresh interpreter (``child.py``) that imports
``cmtwist.cli`` and runs the workload's whole job stream one job at a time,
as a CLI user pays cold imports and empty caches on every invocation.
Passes repeat until ``--seconds`` have passed.  Timings are scaled to a
reference machine speed by a calibration loop timed after every job (see
``scaled_latencies``).  Every report is checked by ``check.py``; every pass
must produce the same report digest.  The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (from wrapped layers, see ``spans.py``) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans
import workloads
from check import check_job

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3           # per kind of pass (untraced, traced)
HARD_CAP_S = 150.0       # stop starting passes, and kill a stuck one, by then
JOB_TIMEOUT_S = 10.0     # a job over this counts as failed
CALIBRATION_S = 150e-6   # child.calibrate() at the reference speed (README, "Timing")
CAL_WINDOW = 3           # a job is scaled by the calibrations up to 3 jobs either side


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_pass(docs: list, trace: bool, env: dict, cwd: Path, budget_s: float) -> dict:
    """One fresh child over the whole stream; adds the measured set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=cwd, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(budget_s, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        payload = json.dumps({"jobs": docs, "trace": trace, "timeout_s": JOB_TIMEOUT_S})
        out, _ = proc.communicate(payload.encode())
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        return {"dead": True, "setup_s": setup_s}
    *lines, last = out.splitlines()
    result = json.loads(last)
    result["results"] = [json.loads(line) for line in lines]
    result["setup_s"] = setup_s
    return result


def import_split(env: dict, cwd: Path, budget_s: float) -> dict[str, float]:
    """sympy's and cmtwist's own cumulative import time from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cmtwist.cli"],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=max(budget_s, 1.0))
    times = spans.parse_importtime(proc.stderr)
    sympy_s = times.get("sympy", 0.0)
    # cmtwist.cli nests the cmtwist package, which nests sympy
    cmtwist_s = max(times.get("cmtwist", 0.0), times.get("cmtwist.cli", 0.0)) - sympy_s
    return {"setup.import_sympy_s": sympy_s, "setup.import_cmtwist_s": cmtwist_s}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: ceil(q * n)-th smallest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stream_digest(results: list) -> str:
    h = hashlib.sha256()
    for outcome, _, text, *_ in results:
        h.update(f"{outcome}\n{len(text)}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


class Verdicts:
    """Checks each distinct (job, outcome, text) once; counts failures per pass."""

    def __init__(self, jobs: list) -> None:
        self.jobs = jobs
        self.seen: dict[tuple, list[str]] = {}
        self.examples: list[str] = []

    def failures(self, results: list) -> list[bool]:
        out = []
        for i, (job, (outcome, _, text, *_)) in enumerate(zip(self.jobs, results)):
            key = (i, outcome, hashlib.sha1(text.encode()).digest())
            if key not in self.seen:
                self.seen[key] = check_job(job["expect"], job["doc"], outcome, text)
                if self.seen[key] and len(self.examples) < 5:
                    self.examples.append(f"job {i} {job['doc']['command']}: {self.seen[key][0]}")
            out.append(bool(self.seen[key]))
        return out


def speed_scale(cal: list[float], i: int) -> float:
    """Reference over measured speed around job i: CALIBRATION_S divided by
    the median calibration time of the jobs up to CAL_WINDOW either side."""
    return CALIBRATION_S / statistics.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])


def scaled_latencies(results: list) -> list[float]:
    """Each job's latency at the reference speed.

    The machine this was written on changes speed by up to 1.8x in phases
    of seconds to minutes, and the program and the calibration loop slow
    down together, so the ratio of the two holds steady where neither does.
    """
    cal = [r[3] for r in results]
    return [r[1] * speed_scale(cal, i) for i, r in enumerate(results)]


def settle(result: dict, verdicts: Verdicts, traced: bool) -> dict:
    """Check a pass and keep only what the metrics need, not the reports."""
    results = result["results"]
    result["digest"] = stream_digest(results)
    result["fails"] = verdicts.failures(results)
    result["scaled"] = scaled_latencies(results)
    cal = [r[3] for r in results]
    result["setup_scaled_s"] = result["setup_s"] * speed_scale(cal, 0)
    result["calibration_s"] = statistics.median(cal)
    if traced:
        result["layers"] = per_pass_layers(result)
    result["results"] = [r[:2] for r in results]
    return result


def job_latencies(passes: list) -> list[float]:
    """Per job, the median of its scaled latencies over the passes (each a
    cold start)."""
    return [statistics.median(col) for col in zip(*(p["scaled"] for p in passes))]


def end_to_end(passes: list, ok: list[bool]) -> dict:
    lat = job_latencies(passes)
    verified = sum(ok)
    return {
        "setup_s": (statistics.median(p["setup_scaled_s"] for p in passes), "s"),
        "jobs_per_s": (verified / sum(lat), "1/s"),
        "job_ms_p50": (nearest_rank(lat, 0.5) * 1e3, "ms"),
        "job_ms_p90": (nearest_rank(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


HOT = {
    "residues": ("invariant_factor_basis", "subgroup_generated", "coset_mul"),
    "fields": ("field_from", "compositum", "roots_of_unity_order", "factorint"),
    "cmtypes": ("validate_cm_type", "stabilizer", "reflex_type", "restriction_multiplicities"),
    "inertia": ("kitself_certificate", "isprime"),
    "cli": ("declared_basis",),
}
CALLS = ("residues.coset_mul", "inertia.isprime")
HIT_RATIOS = ("residues.unit_group", "fields.galois_group", "fields.roots_of_unity_order")


def per_pass_layers(p: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    totals = p["spans"]
    job_s = sum(r[1] for r in p["results"])
    out: dict[str, float] = {}
    layers = spans.layer_totals(totals)
    for layer in spans.LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / job_s
    for layer, names in HOT.items():
        for name in names:
            out[f"{layer}.{name}.s"] = totals.get(f"{layer}.{name}", (0, 0.0, 0.0))[2]
    for name in CALLS:
        out[f"{name}.calls"] = totals.get(name, (0, 0.0, 0.0))[0]
    for name in HIT_RATIOS:
        hits, misses = p["caches"].get(name, (0, 0))
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["twists.hypothesis_errors"] = sum(
        1 for o, _, text, *_ in p["results"] if text.startswith("hypothesis failure: "))
    out["cli.parse_s"] = totals.get("cli.validate_input", (0, 0.0, 0.0))[2]
    out["cli.serialize_s"] = totals.get("cli.Report.to_json", (0, 0.0, 0.0))[2]
    out["cli.report_bytes"] = sum(len(t) for o, _, t, *_ in p["results"] if o in ("0", "2") and t.startswith("{"))
    return out


UNITS = {".calls": "count", ".s": "s", "_s": "s", ".share": "ratio", ".hit_ratio": "ratio",
         ".hypothesis_errors": "count", ".report_bytes": "bytes"}


def _unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def per_layer(traced: list, plain: list, splits: list, ok_traced, ok_plain) -> dict:
    rows = [p["layers"] for p in traced]
    out = {name: (statistics.median(r[name] for r in rows), _unit(name)) for name in rows[0]}
    for name in splits[0]:
        out[name] = (statistics.median(s[name] for s in splits), "s")
    traced_rate = sum(ok_traced) / sum(job_latencies(traced))
    plain_rate = sum(ok_plain) / sum(job_latencies(plain))
    out["trace.jobs_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
    out["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    cwd = Path.cwd()
    src = cwd / "src"
    if not (src / "cmtwist" / "cli.py").is_file():
        print(f"error: {src}/cmtwist/cli.py not found; run from the root of a cmtwist checkout",
              file=sys.stderr)
        return 2
    env = _env(src)
    jobs = workloads.generate(args.workload, args.seed)
    docs = [j["doc"] for j in jobs]
    # Compile the program's bytecode once, as an installed CLI would have it.
    subprocess.run([sys.executable, "-c", "import cmtwist.cli"], cwd=cwd, env=env,
                   check=True, timeout=120)

    plain, traced, splits = [], [], []
    verdicts = Verdicts(jobs)
    while True:
        elapsed = perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_CAP_S:
            break
        trace_pass = bool(args.trace) and len(traced) < len(plain)
        result = run_pass(docs, trace_pass, env, cwd, HARD_CAP_S + 20 - elapsed)
        if result.get("dead"):
            print(f"error: a pass died or was killed after {perf_counter() - start:.0f} s",
                  file=sys.stderr)
            plain.append(result)
            break
        (traced if trace_pass else plain).append(settle(result, verdicts, trace_pass))
        if trace_pass:
            splits.append(import_split(env, cwd, HARD_CAP_S + 20 - (perf_counter() - start)))

    dead = any(p.get("dead") for p in plain)
    passes = [p for p in plain + traced if not p.get("dead")]
    n = len(jobs)
    fails = [p["fails"] for p in passes]
    failed = sum(map(sum, fails)) + n * (len(plain) + len(traced) - len(passes))
    attempted = n * (len(plain) + len(traced))
    digests = {p["digest"] for p in passes}
    ok_plain = [not any(col) for col in zip(*fails[:len(plain)])] if plain and not dead else []
    ok_traced = [not any(col) for col in zip(*fails[len(plain):])]
    correct = not dead and failed == 0 and len(digests) == 1

    print(f"workload {args.workload} seed {args.seed}: {n} jobs x {len(plain)} passes"
          + (f" + {len(traced)} traced passes" if args.trace else ""))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"report digest {' '.join(sorted(digests)) or '-'}")
    for line in verdicts.examples:
        print(f"failed: {line}")
    if dead or not passes or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = per_layer(traced, plain, splits, ok_traced, ok_plain)
    else:
        metrics = end_to_end(plain, ok_plain)
        print(f"latency samples: {n} jobs (p90 has {n - math.ceil(0.9 * n)} beyond it), "
              f"median of {len(plain)} cold passes each")
    if passes:
        print(f"calibration: median {statistics.median(p['calibration_s'] for p in passes) * 1e6:.1f}"
              f" us, reference {CALIBRATION_S * 1e6:.0f} us; timings are scaled to the reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
