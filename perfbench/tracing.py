"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``ilkit`` module that holds it, under whatever name the module
imported it, so calls between modules are seen as well as calls from the
pass runner.  Only the traced pass installs it; untraced passes patch
nothing.

Memory stays bounded: inner calls are not kept as spans but summed into
count, total time, self time and a work count per (layer, parent layer).
Only the root span of each task is kept.  A call that re-enters the layer
it is already inside (``translate`` recursing) belongs to the outer span.
"""

from __future__ import annotations

import sys
import time

# (module, function, layer, work count taken from (args, result))
LAYERS = [
    ("formula", "parse", "formula.parse", None),
    ("formula", "to_str", "formula.to_str", None),
    ("formula", "enumerate_formulas", "formula.enumerate_formulas", "generator"),
    ("semantics", "extension", "semantics.extension", None),
    ("semantics", "frame_valid", "semantics.frame_valid", None),
    ("semantics", "equiv_up_to", "semantics.equiv_up_to", None),
    ("semantics", "check_bisim", "semantics.check_bisim", None),
    ("semantics", "max_bisim", "semantics.max_bisim", None),
    ("algebra", "translate", "algebra.translate", None),
    ("algebra", "eval_term", "algebra.eval_term", None),
    ("algebra", "r_inv_mask", "algebra.set_ops", None),
    ("algebra", "r_inv_dual_mask", "algebra.set_ops", None),
    ("algebra", "s_inv_mask", "algebra.set_ops", None),
    ("filters", "assuring", "filters.assuring", None),
    ("filters", "assuring_family", "filters.assuring_family", None),
    ("extension", "build_ue", "extension.build_ue", lambda a, r: len(r)),
    ("extension", "ue_to_dict", "extension.ue_to_dict", None),
    ("extension", "check_truth_theorem", "extension.check_truth_theorem", None),
    ("extension", "check_saturation", "extension.check_saturation", None),
    ("extension", "check_label_saturation", "extension.check_label_saturation", None),
    ("frames", "validate", "frames.validate", None),
    ("frames", "complete", "frames.complete", None),
    ("corpus", "corpus_models", "corpus.corpus_models", None),
    ("calculus", "check_proof", "calculus.check_proof", lambda a, r: len(a[0].steps)),
    ("calculus", "is_tautology", "calculus.is_tautology", None),
    ("pencil", "nondefinability_demo", "pencil.nondefinability_demo",
     lambda a, r: r.trials),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        # (layer, parent layer) -> [calls, total s, self s, work]
        self.stats = {}
        # open spans: [layer, start, time of child layer spans]
        self.stack = [["task", 0.0, 0.0]]
        self.spans = []

    def _record(self, layer, parent, dt, child, work):
        st = self.stats.get((layer, parent[0]))
        if st is None:
            st = self.stats[(layer, parent[0])] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child
        st[3] += work
        parent[2] += dt

    def _wrap(self, layer, orig, work):
        stack = self.stack
        clock = time.perf_counter
        record = self._record

        if work == "generator":
            def gen_wrapper(*args, **kwargs):
                # no time: a generator's body runs inside its consumer's span
                parent = stack[-1]
                count = 0
                try:
                    for item in orig(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    record(layer, parent, 0.0, 0.0, count)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return orig(*args, **kwargs)
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                done = True
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                record(layer, parent, dt, frame[2],
                       work(args, result) if work and done else 0)

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ilkit" or name.startswith("ilkit."))]
        for mod_name, fn_name, layer, work in LAYERS:
            orig = getattr(sys.modules[f"ilkit.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, orig, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def run_task(self, name, fn):
        """Run one task as a root span; its self time excludes layer spans."""
        root = self.stack[0]
        root[2] = 0.0
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.spans.append([name, t0, t1, t1 - t0 - root[2]])

    def rows(self):
        return [[layer, parent, *st] for (layer, parent), st in sorted(self.stats.items())]
