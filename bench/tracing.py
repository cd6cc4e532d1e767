"""Layer tracing for the benchmark's traced run.

A Tracer wraps the public functions listed in LAYER_FUNCS at every
matroidlab module namespace that binds them, so calls between modules go
through the wrappers too.  Each call (each resumption, for a generator)
becomes a span: name, parent span, start, end.  Spans stay in memory and
are written out when the run ends.  FiniteField arithmetic is counted,
not spanned: it runs millions of times and has no children.

Nothing here is imported or installed by an untraced run.
"""

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

# (module, attribute): the layers' public functions; "Class.method" patches
# the method on the class, which every module shares.
LAYER_FUNCS = (
    ("field", "make_field"),
    ("linalg", "rref_rows"),
    ("linalg", "Subspace.__init__"),
    ("linalg", "orth_complement"),
    ("linalg", "enumerate_subspaces"),
    ("linalg", "min_weight"),
    ("matroid", "contract"),
    ("matroid", "delete"),
    ("matroid", "rank_of"),
    ("matroid", "smallest_circuit"),
    ("matroid", "smallest_cocircuit"),
    ("matroid", "all_subset_ranks"),
    ("matroid", "projectively_equivalent"),
    ("matroid", "equivalent_up_to_relabel_scaling"),
    ("matroid", "isomorphic"),
    ("matroid", "has_minor"),
    ("matroid", "vertical_connectivity"),
    ("templates", "subfield_matroid_of"),
    ("templates", "frame_matroid_of"),
    ("templates", "enumerate_conforming"),
    ("templates", "member_of"),
    ("codes", "code_params"),
    ("codes", "ml_error_mc"),
    ("growth", "h_exhaustive"),
    ("perturb", "elementary_projections"),
    ("perturb", "elementary_lifts"),
    ("perturb", "dist"),
    ("perturb", "pert_bounds"),
    ("perturb", "pert_exact"),
)
FIELD_OPS = ("add", "sub", "mul", "inv", "neg")

# useful-outcome ratios: name -> (children, parent); the ratio is the number
# of child spans whose direct parent is a `parent` span, per `parent` call
RATIOS = {
    "templates.equiv_per_member": (("matroid.equivalent_up_to_relabel_scaling",),
                                   "templates.member_of"),
    "templates.realized_per_member": (("templates.subfield_matroid_of",
                                       "templates.frame_matroid_of"), "templates.member_of"),
    "matroid.subset_ranks_per_equiv": (("matroid.all_subset_ranks",),
                                       "matroid.equivalent_up_to_relabel_scaling"),
    "matroid.deletes_per_has_minor": (("matroid.delete",), "matroid.has_minor"),
    "perturb.lattice_calls_per_dist": (("perturb.elementary_projections",
                                        "perturb.elementary_lifts"), "perturb.dist"),
}


def layer_names():
    return [f"{mod}.{attr.split('.')[0]}" for mod, attr in LAYER_FUNCS]


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "count" if metric.endswith((".calls", ".ops")) else "ratio"


class Tracer:
    def __init__(self):
        self.names = layer_names()
        self.spans = []           # [name index, parent span or -1, start, end, outcome]
        self.stack = []
        self.calls = Counter()
        self.field_ops = [0]
        self._undo = []

    # -- installation ----------------------------------------------------
    def install(self, *callers):
        """Wrap the layer functions in matroidlab and in the given modules."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "matroidlab" or name.startswith("matroidlab.")}
        namespaces = list(pkg.values()) + list(callers)
        for i, (mod, attr) in enumerate(LAYER_FUNCS):
            owner = pkg[f"matroidlab.{mod}"]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(i, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(i, orig)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, wrapped)
        FiniteField = pkg["matroidlab.field"].FiniteField
        for op in FIELD_OPS:
            self._patch(FiniteField, op, self._count(getattr(FiniteField, op)))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count(self, fn):
        ops = self.field_ops

        @functools.wraps(fn)
        def counted(*args):
            ops[0] += 1
            return fn(*args)

        return counted

    def _wrap(self, idx, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[idx] += 1
                gen = fn(*args, **kwargs)
                while True:  # one span per resumption
                    span = [idx, stack[-1] if stack else -1, clock(), 0.0, None]
                    spans.append(span)
                    stack.append(len(spans) - 1)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[3] = clock()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[idx] += 1
            span = [idx, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if out is True or out is False:
                span[4] = out
            return out

        return traced

    # -- results -----------------------------------------------------------
    def idle_layers(self):
        return [name for i, name in enumerate(self.names) if not self.calls[i]]

    def metrics(self):
        """Calls and self time per layer function, field op count, ratios."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for idx, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        under = Counter()  # (child name, parent name) -> spans
        hits = 0
        for i, (idx, parent, start, end, outcome) in enumerate(spans):
            self_s[idx] += end - start - child[i]
            if parent >= 0:
                pname = names[spans[parent][0]]
                under[names[idx], pname] += 1
                if pname == "growth.h_exhaustive" and names[idx] == "matroid.isomorphic":
                    hits += outcome is True
        out = {}
        for i, name in enumerate(names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out["field.ops"] = self.field_ops[0]
        by_name = Counter()
        for i, name in enumerate(names):
            by_name[name] += self.calls[i]
        for ratio, (kids, parent) in RATIOS.items():
            count = sum(under[k, parent] for k in kids)
            out[ratio] = count / by_name[parent] if by_name[parent] else 0.0
        bucket = under["matroid.isomorphic", "growth.h_exhaustive"]
        out["growth.bucket_hit_ratio"] = hits / bucket if bucket else 0.0
        return out

    def write_spans(self, path):
        """One line per span: id, parent id, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (idx, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{self.names[idx]}\t{start:.7f}\t{end:.7f}\n")
