"""One benchmark repetition in a fresh interpreter; run.py starts it.

Usage: python3 perfbench/child.py JOB.json

The job names the CLI argument list, an optional sweep config, whether to
trace, and where to write the result.  Set-up ends once ``swiptrelay.cli``
(with numpy and scipy) is imported and the config is parsed; the timed
region is one call of ``swiptrelay.cli.main`` up to the CSV being written.
Times come from the system-wide monotonic clock, so the parent can subtract
its own spawn time from ``t_ready``.  The child loads nothing that
swiptrelay does not load itself; the parent probes the machine's speed
before the spawn and after the exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages from before the exec,
    so the per-image VmHWM is read where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)

    from swiptrelay import cli, sweepcfg

    parse_s = 0.0
    if job["config"]:
        with open(job["config"], encoding="utf-8") as fh:
            text = fh.read()
        t0 = time.perf_counter()
        sweepcfg.parse_config(text)
        parse_s = time.perf_counter() - t0

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    t_ready = time.monotonic()
    out = io.StringIO()
    error = None
    code = None
    t_start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
    except Exception as exc:  # a crash fails every operation of this repetition
        error = f"{type(exc).__name__}: {exc}"
    t_done = time.monotonic()
    peak_kb = peak_rss_kb()

    if tracer is not None:
        tracer.save(job["spans"])
    result = {
        "t_ready": t_ready,
        "t_start": t_start,
        "t_done": t_done,
        "parse_s": parse_s,
        "exit_code": code,
        "error": error,
        "stdout": out.getvalue(),
        "peak_rss_kb": peak_kb,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
