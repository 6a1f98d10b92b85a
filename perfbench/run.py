"""Benchmark for idealkit: closed-loop CLI jobs on seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 36 --trace 0

One client runs the workload's job list pass after pass (the first pass
whole, then until ``--seconds`` have passed), each job an in-process call to
``idealkit.cli.main(argv)`` with stdout captured, and starts the next job
only when the previous one has returned.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates whole untraced and traced passes
and reports the per-layer metrics from tracing.py.  Every output is
checked (exit code, repeatability across passes, the pins in pins.json and
the property checks in workloads.py).  The last line of stdout is one JSON
object; a copy of the full result goes to perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402

SETUP_ROUNDS = 3     # set-ups per untraced run; setup_s is their median
MIN_SAMPLES = 100    # job samples needed so that ten lie beyond p90
HARD_CAP_S = 120     # never measure longer than this, whatever --seconds says
DEFAULT_SEED = 1     # the seed the pins in pins.json were taken with


class JobError(Exception):
    pass


def import_idealkit():
    """Import idealkit.cli afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "idealkit" or n.startswith("idealkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("idealkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise JobError(f"idealkit imported from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job):
    """(exit code, stdout, stderr, seconds); exceptions become exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else -1
    except Exception as exc:  # a crash is a failed job, not a dead benchmark
        rc = -1
        err.write(f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def setup(name, seed, workdir):
    """Import, input generation and one warm call of each subcommand."""
    t0 = time.perf_counter()
    cli = import_idealkit()
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(name, seed, workdir)
    for job in wl.warm:
        run_job(cli, job)
    return cli, wl, time.perf_counter() - t0


class Loop:
    """Runs passes over the job list and judges every output."""

    def __init__(self, cli, wl, pins):
        self.cli, self.wl, self.pins = cli, wl, pins
        self.first = {}          # label -> (sha256, stdout) of its first run
        self.samples = []        # seconds per job, untraced passes only
        self.by_job = {}         # label -> its untraced seconds, pass by pass
        self.attempted = 0
        self.failures = []       # (label, message)
        self.kept_spans = []     # raw spans of the first traced pass
        self.traced_passes = 0

    def run_pass(self, tracer=None, deadline=None):
        """One pass, cut short at ``deadline`` once MIN_SAMPLES are held;
        returns the summed job seconds."""
        total = 0.0
        keep = self.kept_spans if self.traced_passes == 0 else None
        for i, job in enumerate(self.wl.jobs):
            if (deadline is not None and len(self.samples) >= MIN_SAMPLES
                    and time.perf_counter() > deadline):
                break
            if tracer is not None:
                tracer.job = i
            rc, out, err, dt = run_job(self.cli, job)
            if tracer is not None:
                tracer.fold(keep)
            else:
                self.samples.append(dt)
                self.by_job.setdefault(job.label, []).append(dt)
            total += dt
            self.attempted += 1
            self._judge(job, rc, out, err)
        if tracer is not None:
            self.traced_passes += 1
        return total

    def _judge(self, job, rc, out, err):
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.first.setdefault(job.label, (digest, out))
        pin = self.pins.get(job.key)
        if rc != 0:
            self.failures.append((job.label, f"exit {rc}: {err.strip()[:200]}"))
        elif first[0] != digest:
            self.failures.append((job.label, "output differs from its first run"))
        elif pin is not None and pin != [rc, digest]:
            self.failures.append((job.label, "output differs from the pin"))

    def check_properties(self):
        outputs = {label: out for label, (_digest, out) in self.first.items()}
        self.failures += workloads.run_checks(self.wl, outputs)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, workdir, pins):
    setups = []
    for _ in range(SETUP_ROUNDS if not args.trace else 1):
        cli, wl, secs = setup(args.workload, args.seed, workdir)
        setups.append(secs)
    loop = Loop(cli, wl, pins)
    tracer = Tracer() if args.trace else None
    pass_s, traced_s = [], []
    start = time.perf_counter()
    if tracer is None:
        # whole first pass, then job after job until --seconds have passed
        deadline = start + min(args.seconds, HARD_CAP_S)
        pass_s.append(loop.run_pass())
        while time.perf_counter() < deadline or len(loop.samples) < MIN_SAMPLES:
            pass_s.append(loop.run_pass(deadline=deadline))
    else:
        # whole pairs of passes, so that per-pass figures compare like with like
        while True:
            pass_s.append(loop.run_pass())
            tracer.install()
            try:
                traced_s.append(loop.run_pass(tracer))
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed * (len(pass_s) + 1) / len(pass_s) > min(args.seconds, HARD_CAP_S):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.check_properties()
    return loop, tracer, setups, pass_s, traced_s, peak_rss_mb


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idealkit" / "cli.py").is_file():
        print(f"error: {SRC / 'idealkit'} is missing; run from the root of an "
              f"idealkit checkout", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text()).get(args.workload, {})
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        loop, tracer, setups, pass_s, traced_s, peak_rss_mb = measure(args, workdir, pins)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    wl = loop.wl
    n_jobs = len(wl.jobs)
    fail_jobs = len(loop.failures)
    print(f"workload {wl.name}  seed {wl.seed}  {n_jobs} jobs per pass  "
          f"{len(loop.samples) / n_jobs:.2f} untraced passes")
    for label, msg in loop.failures[:20]:
        print(f"FAIL {label}: {msg}")
    print(f"fail_frac       {fail_jobs / loop.attempted:.4f}        "
          f"({fail_jobs} failed / {loop.attempted} attempted)")

    per = None
    if tracer is None:
        samples = loop.samples
        busy = sum(pass_s)
        metrics = {
            "jobs_per_s": (len(samples) / busy, "1/s"),
            "job_ms_p50": (1000 * statistics.median(samples), "ms"),
            "job_ms_p90": (1000 * quantile(samples, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        beyond = sum(1 for s in samples if s * 1000 > metrics["job_ms_p90"][0])
        notes = {"jobs_per_s": f"{len(samples)} jobs in {busy:.2f} s",
                 "job_ms_p50": f"n={len(samples)} samples",
                 "job_ms_p90": f"n={len(samples)} samples, {beyond} beyond",
                 "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
                 "peak_rss_mb": "ru_maxrss of this process"}
        for k, (v, unit) in metrics.items():
            print(f"{k:15s} {v:<12.4f} {unit:4s} ({notes[k]})")
    else:
        per = tracer.metrics(len(traced_s), sum(traced_s), sum(pass_s))
        metrics = {k: (per[k], _unit(k)) for k in PER_LAYER}
        print(f"traced passes {len(traced_s)}: {sum(traced_s) / len(traced_s):.3f} s "
              f"per pass vs {sum(pass_s) / len(pass_s):.3f} s untraced")
        print("layer self time per traced pass:")
        for layer in LAYERS:
            print(f"  {layer:14s} {per[layer + '.self_s']:.4f} s")
        for k, v in per.items():
            print(f"{k:48s} {v:.6g} {_unit(k)}")
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))

    result = {"correct": fail_jobs == 0, "attempted": loop.attempted,
              "failed": fail_jobs,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _save(args, wl, result, loop, tracer, per, pass_s)
    print(json.dumps(result))
    return 0


def _unit(name):
    if name.endswith(".calls") or name.split(".")[-1] in (
            "raw_components", "components_out", "covers_tested", "covers_out",
            "gens_out", "hb_candidates", "hb_elements_out", "rays_out"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def _save(args, wl, result, loop, tracer, per_layer, pass_s):
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    doc = dict(result, workload=wl.name, seed=wl.seed, seconds=args.seconds,
               jobs=[" ".join(j.argv[:-1] + (Path(j.argv[-1]).name,)) for j in wl.jobs],
               failures=loop.failures[:100], pass_s=pass_s, samples=loop.by_job)
    if tracer is not None:
        doc["all_per_layer"] = per_layer
        doc["bindings"] = tracer.bindings
        doc["missing"] = tracer.missing
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for span in loop.kept_spans:
                fh.write(json.dumps(span) + "\n")
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
