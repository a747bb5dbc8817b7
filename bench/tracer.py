"""Spans around calls into modcover's public functions, for the traced run.

`from .rings import maximal_ideals` gives `modules`, `harness`, `cli` and
the package itself bindings of their own, so a wrapper installed only in
the defining module would miss most calls. `Tracer.install` therefore
replaces every binding of a traced function in every `modcover.*`
namespace, and `uninstall` puts each original back. Spans are kept in
memory as (parent span id, name, start, end); self time is a span's
duration minus the time covered by its direct child spans.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# metric prefix -> (module, attribute path) of the traced callable
SPANS = {
    "dsl.parse_ring": ("modcover.dsl", "parse_ring"),
    "dsl.parse_module": ("modcover.dsl", "parse_module"),
    "snf.abelian_quotient": ("modcover.snf", "abelian_quotient"),
    "rings.FiniteRing": ("modcover.rings", "FiniteRing.__init__"),
    "rings.quotient_ring": ("modcover.rings", "quotient_ring"),
    "rings.local_factorization": ("modcover.rings", "local_factorization"),
    "rings.maximal_ideals": ("modcover.rings", "maximal_ideals"),
    "rings.units": ("modcover.rings", "FiniteRing.units"),
    "modules.realize": ("modcover.modules", "realize"),
    "modules.ideal_action": ("modcover.modules", "ideal_action"),
    "modules.quotient_module": ("modcover.modules", "quotient_module"),
    "modules.submodule_generators": ("modcover.modules", "submodule_generators"),
    "modules.semisimple_invariants": ("modcover.modules", "semisimple_invariants"),
    "modules.localize_at_s": ("modcover.modules", "localize_at_s"),
    "modules.maximal_submodules": ("modcover.modules", "maximal_submodules"),
    "modules.is_cyclic": ("modcover.modules", "is_cyclic"),
    "modules.length": ("modcover.modules", "length"),
    "modules.hdim": ("modcover.modules", "hdim"),
    "modules.jacobson_radical": ("modcover.modules", "jacobson_radical"),
    "modules.radical_via_maximal": ("modcover.modules", "radical_via_maximal"),
    "modules.radical_via_ideals": ("modcover.modules", "radical_via_ideals"),
    "modules.all_submodules": ("modcover.modules", "all_submodules"),
    "covering.sigma_formula": ("modcover.covering", "sigma_formula"),
    "covering.sigma_exact": ("modcover.covering", "sigma_exact"),
    "covering.construct_cover": ("modcover.covering", "construct_cover"),
    "covering.greedy_cover": ("modcover.covering", "greedy_cover"),
    "covering.verify_cover": ("modcover.covering", "verify_cover"),
    "harness.corpus_generate": ("modcover.harness", "corpus_generate"),
}

# counted without a span: far too many calls for one each
COUNTS = {"rings.mul": ("modcover.rings", "FiniteRing.mul")}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []  # (parent id or -1, name, start, end), by span id
        self.counts = {name: 0 for name in COUNTS}
        self.search_nodes = 0
        self.searches_branched = 0
        self.ideal_rings = set()  # labels of rings maximal_ideals ran on
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- patching ----------------------------------------------------------

    def install(self):
        import modcover

        # load every submodule now, so none binds a wrapper after install
        for info in pkgutil.iter_modules(modcover.__path__):
            importlib.import_module(f"modcover.{info.name}")
        for name, (module_name, path) in SPANS.items():
            self._replace(module_name, path, self._span_wrapper(name))
        for name, (module_name, path) in COUNTS.items():
            self._replace(module_name, path, self._count_wrapper(name))

    def _replace(self, module_name, path, make_wrapper):
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "modcover" or mod_name.startswith("modcover.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            setattr(target, key, wrapper)
            self._restore.append((target, key, original))

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def patched(self):
        """(owner, attribute, original) for every binding install replaced."""
        return list(self._restore)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {
            "covering.sigma_exact": self._after_search,
            "rings.maximal_ideals": self._after_maximal_ideals,
        }.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[span_id] = (parent, name, start, clock())
                    stack.pop()
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _after_search(self, args, cert):
        self.search_nodes += cert.nodes_explored
        self.searches_branched += cert.nodes_explored > 0

    def _after_maximal_ideals(self, args, ideals):
        self.ideal_rings.add(args[0].label)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures: `<name>.self_s` and `<name>.calls` for every
        span name, the counters, and the maximal-ideal reuse ratio."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for (_, name, start, end), inner in zip(self.spans, child_time):
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.calls"] += 1
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        calls = out["rings.maximal_ideals.calls"]
        out["rings.maximal_ideals.useful_ratio"] = len(self.ideal_rings) / calls if calls else 0.0
        out["covering.search_nodes"] = self.search_nodes
        out["covering.searches_branched"] = self.searches_branched
        return out
