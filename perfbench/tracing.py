"""Spans and call counts at the public entry points of each cograss layer.

Used only by the traced run.  ``Tracer.install`` replaces each entry point
below with a wrapper: module functions are rebound in every ``cograss``
module that holds them (so ``from .weyl import bruhat_leq`` in
``conormal`` is caught too), and methods are replaced on their class.
Nothing under ``src/`` changes.

Every wrapped call is counted and timed, and its duration is charged to
the enclosing wrapped call as child time, so a layer's self time is its
span time minus the time its child spans cover.  Calls to the names in
``UNSTORED`` are counted and timed the same way but not kept as single
spans: they run hundreds of thousands of times per job, and storing
each would make the trace larger than the program.  Vector helpers such
as ``is_negative_vec`` are not entry points; their time is charged to
the layer that calls them.
"""

from __future__ import annotations

import json
import sys
import time

ENTRY_POINTS = {
    "rootsys": {
        "cograss.rootsys": ["build_diagram", "is_finite_type", "is_connected",
                            "positive_roots", "highest_root", "inner_form", "pairing",
                            "fundamental_coweight", "solve_exact", "is_root"],
    },
    "weyl": {
        "cograss.weyl": ["longest_element", "min_rep", "bruhat_leq", "demazure",
                         "enumerate_min_reps", "weyl_elements", "weyl_order",
                         "bruhat_interval_check", "positive_roots_of", "theta_coroot"],
        "cograss.weyl:AffineWeylElement": ["act", "__mul__", "mul_simple_right",
                                           "mul_simple_left", "inverse", "reduced_word",
                                           "length", "semidirect_pair"],
        "cograss.weyl:WeylGroup": ["from_word", "from_word_str", "from_translation",
                                   "embed_finite_matrix"],
    },
    "cominuscule": {
        "cograss.cominuscule": ["build_context", "cominuscule_nodes"],
        "cograss.cominuscule:CominusculeContext": ["iota_elem"],
    },
    "conormal": {
        "cograss.conormal": ["conormal_roots", "twisted_dual", "shift_check", "is_smooth",
                             "closure_is_schubert", "fibre_maximal",
                             "nilpotent_set_check", "pairwise_sums_not_roots",
                             "report_to_dict"],
    },
    "detvar": {
        "cograss.detvar": ["identity_perm", "generator_perm", "word_to_perm",
                           "perm_to_word", "parse_perm", "skew_rank_element",
                           "chain_perm", "longest_perm", "levi_longest_perm",
                           "check_relations", "element_of", "fibre_rank",
                           "intersect_identity"],
        "cograss.detvar:SignedPermutation": ["__mul__", "inverse", "length"],
    },
    "checks": {
        "cograss.checks": ["run_suite", "check_wsontheta", "check_form_invariance",
                           "check_iota_conjugation", "check_translation_identity",
                           "check_min_rep_sets", "check_connected_support",
                           "check_smoothness_criteria", "check_shift_bijection",
                           "check_main_predicate", "check_nilpotent_sets",
                           "check_shift_root_bijection", "check_bruhat_oracle",
                           "check_demazure_associativity", "check_length_vee",
                           "check_type_d_length_agreement", "check_braid_embedding",
                           "check_detvar_factorizations"],
    },
    "cli": {
        "cograss.cli": ["main", "build_parser"],
    },
}

LAYERS = tuple(ENTRY_POINTS)

UNSTORED = {
    "rootsys.positive_roots", "rootsys.is_root", "rootsys.inner_form", "rootsys.pairing",
    "weyl.min_rep", "weyl.positive_roots_of",
    "weyl.AffineWeylElement.act", "weyl.AffineWeylElement.__mul__",
    "weyl.AffineWeylElement.mul_simple_right", "weyl.AffineWeylElement.mul_simple_left",
    "weyl.AffineWeylElement.inverse", "weyl.AffineWeylElement.reduced_word",
    "weyl.AffineWeylElement.length", "weyl.WeylGroup.from_word",
    "cominuscule.CominusculeContext.iota_elem",
    "detvar.generator_perm", "detvar.SignedPermutation.__mul__",
    "detvar.SignedPermutation.length",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list = []        # (name index, start, end, parent span, op id)
        self.op = -1
        self.originals: dict[str, object] = {}
        self.min_rep_sets: list = []  # (diagram, span, quotient, kept) when leq_bound given
        self._child = []              # child time of each open call
        self._open = []               # span index of each open stored call
        self._cache_before = {}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cograss" or name.startswith("cograss.")]
        for layer, targets in ENTRY_POINTS.items():
            for target, attrs in targets.items():
                module_name, _, cls_name = target.partition(":")
                owner = sys.modules[module_name]
                if cls_name:
                    owner = getattr(owner, cls_name)
                for attr in attrs:
                    original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
                    name = ".".join(filter(None, (layer, cls_name, attr)))
                    wrapper = self._wrap(name, original)
                    self.originals[name] = original
                    if hasattr(original, "cache_info"):
                        self._cache_before[name] = original.cache_info()
                    if cls_name:
                        setattr(owner, attr, wrapper)
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        store = name not in UNSTORED
        observe = self._observe_min_reps if name == "weyl.enumerate_min_reps" else None
        calls, self_s, spans = self.calls, self.self_s, self.spans
        child, open_ = self._child, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if store:
                sid = len(spans)
                spans.append(None)
                parent = open_[-1] if open_ else -1
                open_.append(sid)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[idx] += duration - child.pop()
                calls[idx] += 1
                if child:
                    child[-1] += duration
                if store:
                    open_.pop()
                    spans[sid] = (idx, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_min_reps(self, args, kwargs, result):
        bound = kwargs.get("leq_bound", args[3] if len(args) > 3 else None)
        if bound is not None:
            group, span, quotient = args[:3]
            self.min_rep_sets.append((group.diagram, tuple(span), tuple(quotient), len(result)))

    def _cache_delta(self, name):
        """(hits, misses) of an lru_cache entry point since install, or None."""
        original = self.originals[name]
        if not hasattr(original, "cache_info"):
            return None
        before, after = self._cache_before[name], original.cache_info()
        return after.hits - before.hits, after.misses - before.misses

    def _kept_ratio(self) -> float:
        """Share of W_span ∩ W^quotient that survives the Bruhat bound."""
        order = self.originals["weyl.weyl_order"]
        kept = index = 0
        for diagram, span, quotient, size in self.min_rep_sets:
            kept += size
            index += order(diagram, span) // order(diagram, sorted(set(span) & set(quotient)))
        return kept / index if index else 0.0

    def summary(self) -> dict:
        """The per-layer metrics this tracer can give, by metric name."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        out = {}
        for layer in LAYERS:
            mine = [n for n in self.names if n.partition(".")[0] == layer]
            out[f"{layer}.self_s"] = sum(self_s[n] for n in mine)
            out[f"{layer}.calls"] = sum(calls[n] for n in mine)
        for name in ("rootsys.is_finite_type", "weyl.bruhat_leq", "weyl.enumerate_min_reps",
                     "cominuscule.build_context", "conormal.closure_is_schubert",
                     "detvar.fibre_rank", "cli.main"):
            out[f"{name}.self_s"] = self_s[name]
        for name in ("rootsys.is_finite_type", "rootsys.positive_roots",
                     "weyl.reduced_word", "weyl.length", "weyl.bruhat_leq",
                     "weyl.enumerate_min_reps", "weyl.demazure",
                     "cominuscule.build_context", "conormal.closure_is_schubert",
                     "conormal.is_smooth", "conormal.twisted_dual"):
            key = name if name in calls else name.replace("weyl.", "weyl.AffineWeylElement.")
            out[f"{name}.calls"] = calls[key]
        out["weyl.mul_simple.calls"] = (calls["weyl.AffineWeylElement.mul_simple_left"]
                                        + calls["weyl.AffineWeylElement.mul_simple_right"])
        out["weyl.mul.calls"] = calls["weyl.AffineWeylElement.__mul__"]
        out["detvar.perm_mul.calls"] = calls["detvar.SignedPermutation.__mul__"]
        out["weyl.enumerate_min_reps.kept_ratio"] = self._kept_ratio()
        demazure = self._cache_delta("weyl.demazure")
        out["weyl.demazure.hit_ratio"] = (demazure[0] / sum(demazure)
                                          if demazure and sum(demazure) else None)
        built = self._cache_delta("cominuscule.build_context")
        out["cominuscule.build_context.built"] = built[1] if built else calls[
            "cominuscule.build_context"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, out, separators=(",", ":"))
