"""Record the golden outputs the benchmark checks against.

Run from the root of a checkout whose ``src/`` is the reference version:

    python3 perfbench/record_golden.py

It writes ``perfbench/golden/verify-sweep.json`` (every suite's sorted
``(check_id, params, passed)`` list at ``max_rank=7`` with E7) and
``perfbench/golden/query-mix.json`` (for every cominuscule context up to
rank 8 plus E7, every element of W^J by reduced word, with the SHA-256
of the ``conormal --fibre --json`` output for it and the query's work:
the Weyl group elements it creates when it runs alone, right after the
set-up of a query-mix job).  The benchmark never
rewrites these files; re-record them only when a change is meant to alter
an output, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cograss import cli  # noqa: E402
from cograss.checks import SUITES, cominuscule_pairs, run_suite  # noqa: E402
from cograss.cominuscule import build_context  # noqa: E402
from cograss.weyl import AffineWeylElement, enumerate_min_reps  # noqa: E402

import workloads  # noqa: E402


def record_verify_sweep() -> dict:
    contexts = [list(c) for c in cominuscule_pairs(workloads.VERIFY_MAX_RANK, True)]
    suites = {}
    for name in sorted(SUITES):
        report = run_suite(name, max_rank=workloads.VERIFY_MAX_RANK, include_e7=True)
        suites[name] = [[c.check_id, c.params, c.passed] for c in report.checks]
    return {"contexts": contexts, "suites": suites}


def in_child(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result.  The
    parent's caches stay as they were, so every call starts from one state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(), pipe)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not reply:
        raise SystemExit(f"reference child died with status {status}")
    return json.loads(reply)


def min_rep_words() -> list:
    """[context, sorted reduced words of W^J] for every query-mix context."""
    out = []
    for series, rank, d in cominuscule_pairs(workloads.QUERY_MAX_RANK, True):
        ctx = build_context(series, rank, d)
        reps = enumerate_min_reps(ctx.group, ctx.finite_nodes, ctx.levi_nodes)
        out.append([[series, rank, d], sorted((w.word_str() for w in reps),
                                              key=lambda s: (len(s.split()), s))])
    return out


def record_query_mix() -> dict:
    """Each query runs alone in a child forked from the state a query-mix job
    starts its ops in (every context built, nothing else cached), so its
    recorded work does not depend on the queries recorded before it."""
    universe = in_child(min_rep_words)
    for context, _ in universe:
        build_context(*context)

    created = [0]
    plain_init = AffineWeylElement.__init__

    def counting_init(self, group, cols):
        created[0] += 1
        plain_init(self, group, cols)

    def query(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), created[0]]

    AffineWeylElement.__init__ = counting_init
    entries = []
    for context, context_words in universe:
        digests, work = [], []
        for word in context_words:
            argv = workloads.conormal_argv(context, word)
            code, digest, count = in_child(lambda: query(argv))
            if code != 0:
                raise SystemExit(f"reference run failed: {argv} exited {code}")
            digests.append(digest)
            work.append(count)
        entries.append({"context": context, "words": context_words,
                        "sha256": digests, "work": work})
    AffineWeylElement.__init__ = plain_init
    return {"contexts": entries}


def main() -> int:
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    mix = record_query_mix()  # first, while this process's caches are cold
    (golden / "query-mix.json").write_text(json.dumps(mix, indent=0) + "\n")
    sweep = record_verify_sweep()
    (golden / "verify-sweep.json").write_text(json.dumps(sweep, indent=0) + "\n")
    print(f"verify-sweep: {sum(len(v) for v in sweep['suites'].values())} checks; "
          f"query-mix: {sum(len(e['words']) for e in mix['contexts'])} elements "
          f"over {len(mix['contexts'])} contexts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
