"""Write pins.json: exit code and stdout SHA-256 of every job at the default seed.

    python3 perfbench/pin.py

Run it only on a commit whose answers are trusted; run.py then checks every
job whose flags and input bytes match a pinned job, for any seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads


def main():
    cli = run.import_idealkit()
    pins = {}
    for name in workloads.WORKLOADS:
        workdir = run.HERE / "work" / f"pin-{name}"
        try:
            wl = workloads.build(name, run.DEFAULT_SEED, workdir)
            outputs, table = {}, {}
            for job in wl.jobs:
                rc, out, err, _ = run.run_job(cli, job)
                if rc != 0:
                    sys.exit(f"{job.label}: exit {rc}: {err.strip()}")
                outputs[job.label] = out
                table[job.key] = [rc, hashlib.sha256(out.encode()).hexdigest()]
            bad = workloads.run_checks(wl, outputs)
            if bad:
                sys.exit(f"{name}: property checks fail: {bad[:5]}")
            pins[name] = table
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
