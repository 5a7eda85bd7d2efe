"""One pass of a job stream in a fresh interpreter: the benchmark's child.

Run as ``python child.py`` with the program's ``src`` on PYTHONPATH.  It
imports ``cmtwist.cli``, prints ``ready``, reads ``{"jobs", "trace",
"timeout_s"}`` as JSON from stdin, runs the jobs one at a time, as the CLI
would, and prints one JSON line per job (outcome, latency, report,
calibration time) as it goes, so reports do not pile up in the child's
memory, then one closing line with the totals.

After each job it also times ``calibrate()``, a fixed piece of the
benchmark's own code, so that the parent can tell how fast the machine ran
around that job (see ``run.scaled_latencies``).
"""

import json
import resource
import signal
import sys
import traceback
from time import perf_counter


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, doc: dict) -> tuple[str, str]:
    """Outcome class ("0", "1", "2") and text, exactly as ``cli.main`` maps them."""
    try:
        report = cli.run(cli.validate_input(doc))
    except cli.InputError as exc:
        return "1", f"input error: {exc}"
    except cli.HypothesisError as exc:
        return "2", f"hypothesis failure: {exc}"
    text = report.to_json()
    return ("0" if report.concluded else "2"), text


def calibrate() -> int:
    """Fixed work like the program's own: cosets of a subgroup of (Z/1009)^x
    as frozensets, a dict over them and one big modular power."""
    m = 1009
    H = frozenset(pow(3, 2 * k, m) for k in range(12))
    cosets = {frozenset(x * h % m for h in H) for x in range(1, 60)}
    sizes = {c: len(c) for c in cosets}
    return len(sizes) + pow(123456789123456789, 65537, (1 << 127) - 1) % 2


def peak_rss_kb() -> int:
    """High-water RSS of this image.  ``ru_maxrss`` would also count the
    parent's pages this process held between fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    import cmtwist.cli as cli

    print("ready", flush=True)
    cfg = json.load(sys.stdin)
    recorder = None
    if cfg["trace"]:
        import spans
        recorder = spans.Recorder()
        restore, lru = spans.instrument(recorder)
    signal.signal(signal.SIGALRM, _alarm)
    write = sys.stdout.write
    for doc in cfg["jobs"]:
        signal.setitimer(signal.ITIMER_REAL, cfg["timeout_s"])
        t0 = perf_counter()
        try:
            outcome, text = run_job(cli, doc)
        except JobTimeout:
            outcome, text = "timeout", ""
        except Exception:
            outcome, text = "error", traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        calibrate()
        t2 = perf_counter()
        write(json.dumps([outcome, t1 - t0, text, t2 - t1]) + "\n")
        if recorder is not None:
            recorder.fold()
    out = {"rss_kb": peak_rss_kb()}
    if recorder is not None:
        restore()
        out["spans"] = recorder.totals
        out["caches"] = {name: list(fn.cache_info()[:2]) for name, fn in lru.items()}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
