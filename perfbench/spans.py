"""Pass-through span tracing of defslice, installed from outside the program.

Every wrapped call records one span: layer name, start, end, parent span
and op id.  Spans live in flat ``array`` columns (28 bytes each, since a
traced wide-sums pass records about a million) and are written out when
the pass ends.  A layer's self time is its span durations minus the time
its child spans cover.

Module functions are imported with ``from .x import f``, so a function is
patched in every defslice module namespace that bound it other than its
own: its spans mark calls that cross a module boundary.  Methods are
patched on their class.  The named internal steps (``_close``,
``_cable_sigma``, ``div_exact``) and ``lens_d``, which ``surgery_d`` calls
from inside its module, are patched in their own module as well.  A
target that no longer exists is recorded as absent, not as an error.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer -> targets as (module, attribute, patch-own-module); an attribute
# "Class.method" patches the method on the class
LAYERS = {
    "knotexpr.parse": [("knotexpr", "parse", False)],
    "knotexpr.normalize": [("knotexpr", "normalize", False)],
    "knotexpr.alexander": [("knotexpr", "alexander", False)],
    "certificates.db_get": [("certificates", "CertificateDB.get", False)],
    "certificates.nu_equiv_reduce": [("certificates", "nu_equiv_reduce", False)],
    "laurent.div_exact": [("laurent", "div_exact", True)],
    "laurent.mul": [("laurent", "LaurentPoly.__mul__", False)],
    "laurent.vanishes_at_unit_root": [("laurent", "vanishes_at_unit_root", False)],
    "hf_invariants.v0_lower": [("hf_invariants", "Evaluator._sum_lower_v0", False)],
    "hf_invariants.sum_fold": [("hf_invariants", "Evaluator._vseq_sum", False)],
    "hf_invariants.cable_step": [("hf_invariants", "Evaluator._vseq_cable", False)],
    "hf_invariants.close": [("hf_invariants", "_close", True)],
    "hf_invariants.vseq": [("hf_invariants", "Evaluator._vseq", False)],
    "hf_invariants.v_seq": [("hf_invariants", "Evaluator.v_seq", False)],
    "hf_invariants.tau": [("hf_invariants", "Evaluator.tau", False)],
    "hf_invariants.nu_plus": [("hf_invariants", "Evaluator.nu_plus", False)],
    "hf_invariants.surgery_d": [("hf_invariants", "Evaluator.surgery_d", False)],
    "hf_invariants.lens_d": [("hf_invariants", "lens_d", True)],
    "signatures.sigma": [("signatures", "sigma", False)],
    "signatures.cable_sigma": [("signatures", "_cable_sigma", True)],
    "signatures.combination_check": [("signatures", "signature_combination_check", False)],
    "obstructions.verdict": [
        ("obstructions", "obstruct_negative_definite", False),
        ("obstructions", "obstruct_positive_definite", False),
        ("obstructions", "obstruct_definite", False),
    ],
    "obstructions.kinkiness": [("obstructions", "kinkiness_bounds", False)],
    "qform_verify.bcg_check": [("qform_verify", "bcg_cobordism_check", False)],
    "cli.main": [("cli", "main", True)],
    "cli.json_out": [("cli", "_print_json", True)],
}


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self):
        self.names = list(LAYERS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.absent = []
        self.vseq_keys = set()
        self.combinations = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------

    def _wrapper(self, layer, fn):
        name_id = self.name_ids[layer]
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if layer == "hf_invariants.vseq":
            def vseq(self_, e, need_lower=True):
                tracer.vseq_keys.add((tracer.op_id, id(self_), e, need_lower))
                return traced(self_, e, need_lower)
            return vseq
        if layer == "signatures.combination_check":
            def check(*args, **kwargs):
                result = traced(*args, **kwargs)
                tracer.combinations += result.count
                return result
            return check
        return traced

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "defslice" or name.startswith("defslice.")
        }
        for layer, targets in LAYERS.items():
            for mod_name, attr, own in targets:
                home = modules.get(f"defslice.{mod_name}")
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                if owner is None or member not in vars(owner):
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                original = vars(owner)[member]
                wrapper = self._wrapper(layer, original)
                if owner_name:
                    self._patch(owner, member, original, wrapper)
                    continue
                for mod in modules.values():
                    if mod is home and not own:
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def remove(self):
        """Restore every patched attribute; untraced code never sees a wrapper."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------

    def layer_totals(self):
        """Per layer: calls, total time and self time."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            d = ends[i] - starts[i]
            calls[name_id] += 1
            total[name_id] += d
            self_s[name_id] += d - child[i]
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path):
        """Binary columns, each as long as the returned span count: name
        ids (i32, indexing LAYERS in order), parent span indexes (i32, -1 at
        the root), op ids (i32), starts and ends (f64, perf_counter s)."""
        with open(path, "wb") as fh:
            for col in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                col.tofile(fh)
        return len(self.span_name)
