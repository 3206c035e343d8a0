"""One measurement in a fresh interpreter; started by run.py, one at a time.

Reads a JSON request on stdin:
``{"workload", "contexts", "ops", "trace", "spans_path"}`` (``ops`` is
null for a set-up-only measurement).  It times the set-up, meaning the
import of ``cograss`` from this checkout's ``src/`` and ``build_context``
for every context, then each op in order, and prints one JSON result
line on stdout.  run.py checks the outputs; this worker only times them.

The worker also samples the speed of the CPU it runs on (see
``Speedometer``) and reports every timing twice: as measured (``*_wall_s``)
and scaled to the reference speed (``setup_s``, ``op_s``, ``run_s``).
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The reference: a fixed pure-Python loop, and the time it takes at the
# reference speed (about its median on the machine BASELINE.json was
# recorded on).  A timing t measured while the loop takes r seconds is
# reported as t * REF_NOMINAL_S / r.
REF_LOOPS = 3000
REF_NOMINAL_S = 2.5e-4
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.5          # samples this close to a timed interval scale it

clock = time.perf_counter


def reference() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class Speedometer:
    """Runs ``reference`` every SAMPLE_EVERY_S of wall time, from a SIGALRM
    handler in this process, and records how long each run took.

    On a shared host the speed of a CPU drifts by tens of percent for
    seconds to minutes at a time.  The loop slows with it, so dividing a
    timing by the loop's time near it removes most of that drift.  The
    time spent in the samples is left out of every timing.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.secs: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = clock()
        reference()
        dt = clock() - t0
        self.starts.append(t0)
        self.secs.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, t0: float, t1: float) -> float:
        """Factor to the reference speed for the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.secs[lo:hi] or self.secs)


def main() -> int:
    if sys.flags.optimize:
        print("refusing to run under -O: cograss keeps invariants in asserts",
              file=sys.stderr)
        return 2
    request = json.load(sys.stdin)
    sys.path.insert(0, str(HERE))
    import workloads
    workload = workloads.WORKLOADS[request["workload"]]
    speed = Speedometer()
    speed.start()

    def begin():
        return clock(), speed.spent

    def end(t0, s0):
        """(start, end, wall time less the samples taken in it).  The order of
        the reads makes a sample at either edge count in, never out."""
        s1 = speed.spent
        t1 = clock()
        return t0, t1, t1 - t0 - (s1 - s0)

    setup_start = begin()
    sys.path.insert(0, str(SRC))
    import cograss
    import cograss.cli  # the package does not import its command line itself
    if Path(cograss.__file__).resolve().parent != SRC / "cograss":
        print(f"imported cograss from {cograss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if request["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    for context in request["contexts"]:
        cograss.build_context(*context)
    setup = end(*setup_start)

    ops = request["ops"]
    intervals, raw, errors = [], [], {}
    job_start = begin()
    for i, op in enumerate(ops or ()):
        if tracer is not None:
            tracer.op = i
        op_start = begin()
        try:
            out = workload.run_op(op)
        except Exception as exc:  # a raised op is a failed op, not a failed run
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        intervals.append(end(*op_start))
        raw.append(out)
    run_wall_s = end(*job_start)[2]
    speed.stop()

    def scaled(interval):
        t0, t1, wall = interval
        return wall * speed.scale(t0, t1)

    result = {"setup_s": scaled(setup), "setup_wall_s": setup[2]}
    if ops is not None:
        op_s = [scaled(i) for i in intervals]
        result.update(run_s=sum(op_s), run_wall_s=run_wall_s,
                      op_s=op_s, op_wall_s=[i[2] for i in intervals], errors=errors,
                      outputs=[None if out is None else workload.finish(out) for out in raw])
    result["ref_s"] = statistics.median(speed.secs)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(request["spans_path"])
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
