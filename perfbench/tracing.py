"""Spans and counters recorded at qfe's module boundaries, from outside qfe.

``Tracer.install`` replaces public functions and methods with recording
wrappers, in every qfe module that binds them (``analyze`` and ``cli``
import ``otimes``, ``from_seeds`` and others by name), and ``uninstall``
puts the originals back.  A span is (name, start, end, parent, job); spans
stay in flat arrays until ``write``.  A span's self time is its duration
minus the time its child spans cover.

Scalar ring methods are not wrapped: a call costs more than the work.  The
scalar multiply count comes free instead, since ``Polynomial.__mul__``
makes exactly nnz(a) * nnz(b) of them.  ``Polynomial.__eq__`` is not
wrapped either, so comparisons count as their caller's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

LAYERS = ("cli", "analyze", "sequences", "poly", "semigroup")

# Public functions per module.  Methods are listed as Class.method.
WRAPPED = {
    "cli": ["main"],
    "analyze": ["verify_fe", "decompose", "infer_degree_t", "solve_delta",
                "check_quantum_forced", "uniqueness_oracle", "zeta_admissibility"],
    "sequences": ["otimes", "oplus", "check_seed_commutativity", "from_seeds",
                  "zeta_scaled_sequence", "dilate_sequence", "psi_substitute_sequence",
                  "reciprocal_sequence", "product_sequence", "exact_quotient_sequence",
                  "assemble", "quantum_sequence", "monomial_sequence",
                  "identity_sequence", "additive_sequence", "FESequence.eval",
                  "AdditiveSequence.eval"],
    "poly": ["Polynomial.__mul__", "Polynomial.__add__", "Polynomial.__neg__",
             "Polynomial.__sub__", "Polynomial.__pow__", "Polynomial.scale",
             "Polynomial.shift", "Polynomial.dilate", "Polynomial.compose",
             "Polynomial.reciprocal", "Polynomial.exact_div", "Polynomial.evaluate",
             "Polynomial.pretty", "Polynomial.valuation", "quantum_integer",
             "scaled_quantum_integer", "monomial", "from_rationals"],
    "semigroup": ["in_semigroup", "factorize", "support_members", "enumerate_semigroup"],
}

# Inclusive time of these spans is reported per operation.
OP_TIMES = {"poly.mul_s": "poly.Polynomial.__mul__",
            "poly.dilate_s": "poly.Polynomial.dilate",
            "poly.exact_div_s": "poly.Polynomial.exact_div",
            "poly.compose_s": "poly.Polynomial.compose",
            "poly.pretty_s": "poly.Polynomial.pretty"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sp_name, self.sp_start, self.sp_end = array("q"), array("q"), array("q")
        self.sp_parent, self.sp_job = array("q"), array("q")
        self.stack: list[int] = []
        self.job = [0]
        self.counts = dict.fromkeys(
            ("eval_calls", "eval_misses", "memo_terms", "otimes_calls", "identities",
             "mul_coeff_ops", "mul_zero_scan", "mul_max_len"), 0)
        self.in_verify = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped to record one span per call; before(args) and after()
        update counters at the boundary."""
        nid = self._id(name)
        names, starts, ends = self.sp_name, self.sp_start, self.sp_end
        parents, jobs, stack, job = self.sp_parent, self.sp_job, self.stack, self.job
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after()
        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, job_id: int, fn):
        """Run one job under a root span carrying its id."""
        self.job[0] = job_id
        return self.span("job", fn)()

    # -- counters at the boundaries ------------------------------------------

    def _hooks(self, name):
        c = self.counts
        in_verify = self.in_verify
        if name == "poly.Polynomial.__mul__":
            def before(args):
                a, b = args[0].coeffs, args[1].coeffs
                zero = args[0].ring.zero
                za, zb = a.count(zero), b.count(zero)
                c["mul_coeff_ops"] += (len(a) - za) * (len(b) - zb)
                c["mul_zero_scan"] += za + zb
                c["mul_max_len"] = max(c["mul_max_len"], len(a), len(b))
            return before, None
        if name == "sequences.otimes":
            def before(args):
                c["otimes_calls"] += 1
                if in_verify[0]:
                    c["identities"] += 1
            return before, None
        if name == "analyze.verify_fe":
            def before(args):
                in_verify[0] += 1

            def after():
                in_verify[0] -= 1
            return before, after
        return None, None

    def _eval_wrapper(self, fn):
        """FESequence.eval: a memo hit is only counted; a miss is a span."""
        c = self.counts
        miss = self.span("sequences.FESequence.eval", fn)

        def wrapper(seq, n):
            c["eval_calls"] += 1
            if n in seq._memo:
                return fn(seq, n)
            c["eval_misses"] += 1
            got = miss(seq, n)
            c["memo_terms"] += len(got.coeffs)
            return got
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "qfe" or k.startswith("qfe.")]
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"qfe.{layer}"]
            for name in names:
                cls_name, _, meth = name.rpartition(".")
                full = f"{layer}.{name}"
                if cls_name:
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if full == "sequences.FESequence.eval":
                        wrapped = self._eval_wrapper(orig)
                    else:
                        wrapped = self.span(full, orig, *self._hooks(full))
                    self._patch(cls, meth, orig, wrapped)
                    continue
                orig = getattr(mod, name)
                wrapped = self.span(full, orig, *self._hooks(full))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, orig, wrapped)

    def _patch(self, obj, attr, orig, wrapped):
        self._patches.append((obj, attr, orig))
        setattr(obj, attr, wrapped)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer counts and times over every span recorded under a job."""
        n = len(self.sp_start)
        dur = [self.sp_end[i] - self.sp_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name_ns = [0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        for i in range(n):
            nid = self.sp_name[i]
            by_name_ns[nid] += dur[i]
            by_name_calls[nid] += 1
            layer = layer_of[nid]
            if layer in self_ns:
                self_ns[layer] += dur[i] - child[i]
                calls[layer] += 1

        def total(name):
            nid = self.name_ids.get(name)
            return (0, 0) if nid is None else (by_name_ns[nid], by_name_calls[nid])

        c = self.counts
        out = {f"{layer}.self_s": (self_ns[layer] / 1e9, "s") for layer in LAYERS}
        out.update({
            "analyze.calls": (calls["analyze"], "count"),
            "analyze.identities": (c["identities"], "count"),
            "semigroup.calls": (calls["semigroup"], "count"),
            "sequences.eval_calls": (c["eval_calls"], "count"),
            "sequences.eval_misses": (c["eval_misses"], "count"),
            "sequences.memo_hit_ratio": (1 - c["eval_misses"] / max(c["eval_calls"], 1), "1"),
            "sequences.otimes_calls": (c["otimes_calls"], "count"),
            "sequences.memo_terms": (c["memo_terms"], "count"),
            "poly.mul_calls": (total("poly.Polynomial.__mul__")[1], "count"),
            "poly.mul_coeff_ops": (c["mul_coeff_ops"], "count"),
            "poly.mul_zero_scan": (c["mul_zero_scan"], "count"),
            "poly.mul_max_len": (c["mul_max_len"], "count"),
            "poly.exact_div_calls": (total("poly.Polynomial.exact_div")[1], "count"),
        })
        for metric, name in OP_TIMES.items():
            out[metric] = (total(name)[0] / 1e9, "s")
        return out

    def write(self, path):
        """Spans as gzip'd TSV: name, start_ns, end_ns, parent index, job id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for i in range(len(self.sp_start)):
                fh.write(f"{names[self.sp_name[i]]}\t{self.sp_start[i]}\t{self.sp_end[i]}"
                         f"\t{self.sp_parent[i]}\t{self.sp_job[i]}\n")
