"""The qsc layers the traced run measures, and the metrics it derives.

Each layer's public functions are wrapped in spans and rebound in every
loaded qsc module namespace that holds them: `from .x import f` copies the
binding, so patching only the defining module would miss most callers.
Functions held elsewhere, such as the values of the CLI's route table or
verify's SUITES, keep calling the unwrapped code, and their time counts
toward the caller's span.  Cached functions are wrapped from outside, so
their caches stay in use.
"""

from __future__ import annotations

import sys

from tracing import FirstCall, Tracer, time_under, totals, wrap

EXPAND_COLD = "qsym.expand_in.cold"
EXPAND_WARM = "qsym.expand_in.warm"


def _expand_key(f, basis):
    # expand_in builds one basis inverse per (degree, basis).
    return (f.degree, basis)


# (span name, module, public functions).  A function a later version of
# qsc no longer has is skipped with a note, so the run still completes.
LAYERS = (
    ("tableaux.enumerate", "qsc.tableaux",
     ("standard_tableaux", "semistandard_tableaux", "weighted_tableaux")),
    ("tableaux.validate", "qsc.tableaux",
     ("make_rows", "is_ssyct", "is_immaculate", "is_standard", "positions")),
    ("insertion.insert", "qsc.insertion", ("insert",)),
    ("insertion.rapture", "qsc.insertion", ("rapture",)),
    ("insertion.is_virtuous", "qsc.insertion", ("is_virtuous",)),
    ("insertion.insert_word", "qsc.insertion", ("insert_word",)),
    ("dirt.enumerate", "qsc.dirt", ("enumerate_dirts",)),
    ("dirt.is_dirt", "qsc.dirt", ("is_dirt",)),
    ("dirt.row_strips", "qsc.dirt", ("row_strips",)),
    ("qsym.mexpr", "qsc.qsym",
     ("young_qs_mexpr", "dual_immaculate_mexpr", "yqs_f_expansion",
      "dimm_f_expansion", "f_to_m", "schur_m_expansion")),
    ("qsym.expand_in", "qsc.qsym", ("expand_in",)),
    ("qsym.quasi_shuffle", "qsc.qsym", ("quasi_shuffle",)),
    ("qsym.tables", "qsc.qsym", ("dimm_to_yqs", "yns_to_imm")),
    ("qsym.conjectures", "qsc.qsym", ("check_conjectures",)),
    ("rw.forward", "qsc.rw", ("rw_forward",)),
    ("rw.dual", "qsc.rw", ("rw_dual",)),
    ("verify", "qsc.verify", ("run_suite",)),
    ("cli", "qsc.cli", ("main",)),
)


def _fresh_len(counter: str, fn):
    """Counts the items of each result that fn computed rather than took
    from its cache."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return lambda tracer, result, args, kwargs: tracer.count(counter, len(result))
    last = [info().misses]

    def after(tracer, result, args, kwargs):
        misses = info().misses
        if misses != last[0]:
            last[0] = misses
            tracer.count(counter, len(result))

    return after


def _tree_counter(prefix: str):
    def after(tracer, result, args, kwargs):
        nodes = leaves = 0
        todo = [result[0]]
        while todo:
            node = todo.pop()
            nodes += 1
            leaves += node.is_leaf
            todo.extend(node.children)
        tracer.count(prefix + ".nodes", nodes)
        tracer.count(prefix + ".leaves", leaves)
    return after


def _after_hook(span: str, fn):
    if span == "tableaux.enumerate":
        return _fresh_len("tableaux.enumerate.fillings", fn)
    if span == "dirt.enumerate":
        return _fresh_len("dirt.enumerate.results", fn)
    if span == "qsym.quasi_shuffle":
        return lambda t, result, a, k: t.count("qsym.quasi_shuffle.terms", len(result.coeffs))
    if span in ("rw.forward", "rw.dual"):
        return _tree_counter(span)
    if span == "verify":
        return lambda t, result, a, k: t.count("verify.cases", result.cases)
    return None


def _qsc_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "qsc" or name.startswith("qsc.")]


class TracedRun:
    """Wraps the layers of the loaded qsc modules for one traced run."""

    def __init__(self):
        self.tracer = Tracer()
        modules = _qsc_modules()
        by_name = {mod.__name__: mod for mod in modules}
        # Every cache in the package, found before wrapping hides any.
        self.caches = {
            id(obj): obj
            for mod in modules
            for obj in vars(mod).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("qsc")
        }
        self.hit_base: dict[str, list] = {}
        for span, module_name, names in LAYERS:
            mod = by_name.get(module_name)
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    print(f"perfbench: {module_name}.{fname} not found; not traced",
                          file=sys.stderr)
                    continue
                if hasattr(fn, "cache_info"):
                    info = fn.cache_info()
                    self.hit_base.setdefault(span, []).append((fn, info.hits, info.misses))
                name = span
                if span == "qsym.expand_in":
                    name = FirstCall(EXPAND_COLD, EXPAND_WARM, _expand_key)
                wrapper = wrap(self.tracer, name, fn, _after_hook(span, fn))
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)

    def _hit_ratio(self, span: str) -> float:
        hits = misses = 0
        for fn, h0, m0 in self.hit_base.get(span, ()):
            info = fn.cache_info()
            hits += info.hits - h0
            misses += info.misses - m0
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a layer the run never called reads 0."""
        spans = self.tracer.spans
        agg = totals(spans)
        counts = self.tracer.counts

        def calls(span):
            return agg.get(span, (0, 0.0, 0.0))[0]

        def self_s(span):
            return agg.get(span, (0, 0.0, 0.0))[2]

        def total_s(span):
            return agg.get(span, (0, 0.0, 0.0))[1]

        out: dict[str, float] = {}
        for span in ("tableaux.enumerate", "tableaux.validate", "insertion.insert",
                     "insertion.rapture", "insertion.is_virtuous",
                     "insertion.insert_word", "dirt.enumerate", "dirt.is_dirt",
                     "qsym.mexpr", "qsym.quasi_shuffle", "qsym.tables"):
            out[span + ".self_s"] = self_s(span)
            out[span + ".calls"] = calls(span)
        for span in ("tableaux.enumerate", "dirt.enumerate", "qsym.mexpr"):
            out[span + ".hit_ratio"] = self._hit_ratio(span)
        out["tableaux.enumerate.fillings"] = counts.get("tableaux.enumerate.fillings", 0)
        out["dirt.enumerate.results"] = counts.get("dirt.enumerate.results", 0)
        out["dirt.row_strips.calls"] = calls("dirt.row_strips")
        core = total_s("insertion.insert") + total_s("insertion.rapture")
        checks = time_under(spans, {"tableaux.validate", "insertion.is_virtuous"},
                            {"insertion.insert", "insertion.rapture"})
        out["insertion.validate_share"] = checks / core if core else 0.0
        out["qsym.expand_in.cold_s"] = self_s(EXPAND_COLD)
        out["qsym.expand_in.warm_s"] = self_s(EXPAND_WARM)
        out["qsym.expand_in.calls"] = calls(EXPAND_COLD) + calls(EXPAND_WARM)
        out["qsym.quasi_shuffle.terms"] = counts.get("qsym.quasi_shuffle.terms", 0)
        out["qsym.conjectures.self_s"] = self_s("qsym.conjectures")
        for span in ("rw.forward", "rw.dual"):
            out[span + ".self_s"] = self_s(span)
            out[span + ".nodes"] = counts.get(span + ".nodes", 0)
        dual_nodes = counts.get("rw.dual.nodes", 0)
        out["rw.dual.leaf_ratio"] = (
            counts.get("rw.dual.leaves", 0) / dual_nodes if dual_nodes else 0.0)
        out["verify.self_s"] = self_s("verify")
        out["verify.cases"] = counts.get("verify.cases", 0)
        out["cli.self_s"] = self_s("cli")
        out["cache.entries"] = sum(fn.cache_info().currsize for fn in self.caches.values())
        return out
