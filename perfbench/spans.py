"""Span tracing from outside the program: wrap the public functions and
methods behind each per-layer metric, record one span per call, and turn
the spans into self times, call counts and exact counters.

A function is wrapped in every ``cohomolab`` module namespace that holds
it, because modules such as ``resolution`` and ``davis`` bind
``smith_normal_form`` and friends at import.  A method is wrapped on its
class.  ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _matrix_bits(M) -> int:
    return max((_max_bits(col.values()) for col in M.cols.values()),
               default=0)


def _targets():
    """(layer, owner, attribute, counter hook) for every wrapped callable.

    ``owner`` is a class for methods and a module for functions.  A hook
    gets (tracer, args, result, diffs before the call) after a call that
    returned and updates counters."""
    from cohomolab import (bar_cohomology, char_chern, cohomology_ring_models,
                           davis, exact_linalg, groups, invariant_rings,
                           resolution)

    def echelon(t, args, result, before):
        ech, vec = args[0], args[1]
        if ech.p is not None:
            return
        bits = _max_bits(vec.values())
        if isinstance(result, dict):  # reduce returns the residue
            bits = max(bits, _max_bits(result.values()))
        else:
            # add stored or rewrote the basis row at the input's leading
            # pivot; rows that only its size reduction touched are not seen
            lead = min((k for k, v in vec.items() if v), default=None)
            row = ech.basis.get(lead)
            if row is not None:
                bits = max(bits, _max_bits(row.values()))
        t.top("exact_linalg.echelon_z.max_bits", bits)

    def kernel(t, args, result, before):
        t.top("exact_linalg.kernel.max_cols", args[0].n_cols)

    def snf(t, args, result, before):
        t.add("exact_linalg.snf.nnz_in", args[0].nnz())
        t.top("exact_linalg.snf.max_rows", args[0].n_rows)

    def load(t, args, result, before):
        t.add("exact_linalg.load.bytes", len(args[-1]))
        if t.inside("resolution.extend"):
            t.add("resolution.cache_hits", 1)

    def extend(t, args, result, before):
        res = args[0]
        for A, r in zip(res.diffs[before:], res.ranks[before + 1:]):
            t.add("resolution.rank_sum", r)
            t.add("resolution.diff_nnz", A.nnz())
            t.top("resolution.diff_max_bits", _matrix_bits(A))

    def characters(t, args, result, before):
        t.add("char_chern.n_characters", len(result))

    def fixed(t, args, result, before):
        t.add("invariant_rings.basis_dim_sum", len(result))

    def quotient(t, args, result, before):
        t.add("davis.quotient_cells", sum(result.complex.f_vector()))

    ech = exact_linalg.Echelon
    fr = resolution.FreeResolution
    cy = char_chern.Cyclotomic
    rm = cohomology_ring_models
    return [
        ("exact_linalg.echelon", ech, "add", echelon),
        ("exact_linalg.echelon", ech, "reduce", echelon),
        ("exact_linalg.kernel", exact_linalg, "kernel_z", kernel),
        ("exact_linalg.kernel", exact_linalg, "kernel_mod_p", kernel),
        ("exact_linalg.snf", exact_linalg, "smith_normal_form", snf),
        ("exact_linalg.load", exact_linalg.SparseMatrix, "load", load),
        ("groups.build", groups, "build_group", None),
        ("groups.subgroups", groups, "subgroup_closure", None),
        ("groups.subgroups", groups, "order_p_subgroup_classes", None),
        ("resolution.extend", fr, "extend_to", extend),
        ("resolution.homology", fr, "homology_dims_mod_p", None),
        ("resolution.homology", fr, "integral_homology", None),
        ("bar_cohomology.cochain", bar_cohomology, "coboundary", None),
        ("bar_cohomology.cochain", bar_cohomology, "cup", None),
        ("bar_cohomology.cochain", bar_cohomology, "cup1", None),
        ("bar_cohomology.solver", bar_cohomology.CoboundarySolver,
         "__init__", None),
        ("bar_cohomology.solver", bar_cohomology.CoboundarySolver,
         "reduce", None),
        ("bar_cohomology.massey", bar_cohomology, "massey", None),
        ("bar_cohomology.massey", bar_cohomology, "matrix_massey", None),
        ("bar_cohomology.transfer", bar_cohomology, "transfer", None),
        ("bar_cohomology.transfer", bar_cohomology, "restrict", None),
        ("char_chern.cyclotomic", cy, "__add__", None),
        ("char_chern.cyclotomic", cy, "__sub__", None),
        ("char_chern.cyclotomic", cy, "__mul__", None),
        ("char_chern.cyclotomic", cy, "scale", None),
        ("char_chern.characters", char_chern, "irreducible_characters",
         characters),
        ("char_chern.chern", char_chern, "chern_exponents_at", None),
        ("invariant_rings.mul", invariant_rings.GradedAlgebra, "mul", None),
        ("invariant_rings.apply_matrix", invariant_rings.MatrixAction,
         "apply_matrix", None),
        ("invariant_rings.fixed", invariant_rings, "fixed_subspace", fixed),
        ("invariant_rings.subalgebra", invariant_rings, "subalgebra_basis",
         None),
        ("cohomology_ring_models.mul", rm.RingModel, "mul", None),
        ("cohomology_ring_models.apply", rm.RingAutomorphism, "apply", None),
        ("cohomology_ring_models.apply", rm.RestrictionMap, "apply", None),
        ("cohomology_ring_models.certify", rm.RingModel, "certify", None),
        ("davis.quotient", davis, "davis_quotient", quotient),
        ("davis.homology", davis, "homology", None),
        ("davis.euler", davis, "chiswell_chi", None),
        ("davis.euler", davis, "orbifold_chi", None),
    ]


# Layers whose Echelon calls are split by ring: Z (p is None) or F_p.
_ECHELON = "exact_linalg.echelon"


class Tracer:
    """In-memory span store plus per-layer aggregates.

    Spans are kept as parallel arrays (layer id, start, end, parent span,
    job id) so that a million calls cost tens of megabytes, and are
    written out by ``dump`` after the run."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("H")
        self.job = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, layer, child seconds]
        self.top_s = 0.0  # seconds inside top-level spans, for overhead
        self._saved: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def top(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value
        else:
            self.counters.setdefault(name, 0)

    def value(self, name: str):
        """A per-layer metric: ``X.calls`` and ``X.self_s`` are the call
        count and self time of layer X, any other name is a counter."""
        layer, _, field = name.rpartition(".")
        if field == "calls":
            return self.calls.get(layer, 0)
        if field == "self_s":
            return self.self_s.get(layer, 0.0)
        return self.counters.get(name, 0)

    def inside(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)

    # -- spans --------------------------------------------------------------

    def _id(self, layer: str) -> int:
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_id[layer]

    def _wrap(self, layer: str, fn, hook):
        stack = self._stack
        split = layer == _ECHELON
        names = [layer + "_z", layer + "_fp"] if split else [layer]
        ids = {name: self._id(name) for name in names}
        calls, self_s = self.calls, self.self_s
        note = layer == "resolution.extend"

        def wrapper(*args, **kwargs):
            name = names[args[0].p is not None] if split else layer
            before = len(args[0].diffs) if note else None
            idx = len(self.span_start)
            self.span_layer.append(ids[name])
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            self.span_end.append(0.0)
            frame = [idx, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[2]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_s += dur
            if hook is not None:
                hook(self, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; functions in every module that imported them."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cohomolab"
                                         or name.startswith("cohomolab."))]
        for layer, owner, attr, hook in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, hook))
                else:
                    new = self._wrap(layer, raw, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(layer, fn, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines with a header row."""
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.layers[self.span_layer[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")
