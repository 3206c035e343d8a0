"""The three benchmark workloads: their inputs, their ops and their checks.

The runner makes the inputs and checks the outputs; the worker runs the
ops.  Nothing here imports ``cograss`` at module level, so a worker can
import this module before it starts timing the set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY_MAX_RANK = 7
QUERY_MAX_RANK = 8
DETVAR_RANKS = range(4, 10)
# Queries per query-mix job: one from each of this many equal-size strata
# of the element universe ordered by cold work (see make_ops).
QUERY_COUNT = 400


def conormal_argv(context, word):
    series, rank, d = context
    return ["conormal", "--type", series, "--rank", str(rank), "--comin", str(d),
            "--w", word, "--fibre", "--json"]


def _load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def even_rank(n):
    return n - n % 2


class Workload:
    name = ""

    @staticmethod
    def finish(out):
        """Turn run_op's result into its JSON form, outside the timed region."""
        return out


class VerifySweep(Workload):
    name = "verify-sweep"

    def __init__(self):
        self.golden = _load(self.name)

    def contexts(self):
        return [tuple(c) for c in self.golden["contexts"]]

    def make_ops(self, seed):
        # The job is the fixed sweep `verify --suite all` performs.
        return sorted(self.golden["suites"])

    @staticmethod
    def run_op(op):
        from cograss import checks
        report = checks.run_suite(op, max_rank=VERIFY_MAX_RANK, include_e7=True)
        return {"pass": report.all_pass,
                "checks": [[c.check_id, c.params, c.passed] for c in report.checks]}

    def check(self, op, out):
        return out["pass"] and out["checks"] == self.golden["suites"][op]


class DetvarFibre(Workload):
    name = "detvar-fibre"

    def contexts(self):
        return [("D", n, n) for n in DETVAR_RANKS]

    def make_ops(self, seed):
        return [[n, r] for n in DETVAR_RANKS for r in range(0, even_rank(n) + 1, 2)]

    @staticmethod
    def run_op(op):
        from cograss import detvar
        corank, witness = detvar.fibre_rank(*op)
        return [corank, list(witness.values)]

    def check(self, op, out):
        # Closed form of the theorem, recomputed here without the library:
        # corank nbar - r, witnessed by the rank-(nbar - r) stratum element.
        n, r = op
        k = even_rank(n) - r
        values = list(range(k + 1, n + 1)) + list(range(2 * n - k + 1, 2 * n + 1))
        return out == [k, values]


class QueryMix(Workload):
    name = "query-mix"

    def __init__(self):
        golden = _load(self.name)
        self.universe = []  # (work, context, word, sha256)
        for entry in golden["contexts"]:
            context = tuple(entry["context"])
            for word, digest, work in zip(entry["words"], entry["sha256"], entry["work"]):
                self.universe.append((work, context, word, digest))
        self.expected = {(c, w): h for _, c, w, h in self.universe}
        self._contexts = [tuple(e["context"]) for e in golden["contexts"]]

    def contexts(self):
        return self._contexts

    def make_ops(self, seed):
        """Stratified equal-probability sample of the (context, w) universe.

        The universe is ordered by each query's cold work as recorded with
        the golden outputs (elements it creates when run alone from a job's
        starting state, a deterministic count) and cut into QUERY_COUNT
        strata of (nearly) equal size; one element is drawn from each.  Each
        element is about as likely to be drawn as in a uniform sample (1 in
        5 or 1 in 6), but each job holds the same mix of cheap and expensive
        queries, so a few rare slow elements do not decide a run's time.
        """
        rng = random.Random(seed)
        ordered = sorted(self.universe, key=lambda e: (e[0], e[1], e[2]))
        size = len(ordered)
        picks = []
        for b in range(QUERY_COUNT):
            _, context, word, _ = ordered[rng.randrange(b * size // QUERY_COUNT,
                                                        (b + 1) * size // QUERY_COUNT)]
            picks.append(conormal_argv(context, word))
        rng.shuffle(picks)
        return picks

    @staticmethod
    def run_op(op):
        import contextlib
        import io
        from cograss import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(op)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
        return [code, out]

    @staticmethod
    def finish(out):
        code, buf = out
        return [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]

    def check(self, op, out):
        context = (op[2], int(op[4]), int(op[6]))
        return out == [0, self.expected[(context, op[8])]]


WORKLOADS = {w.name: w for w in (VerifySweep, DetvarFibre, QueryMix)}
