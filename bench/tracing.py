"""Per-layer timing from outside the program.

The traced run rebinds the names through which one spectramono module
calls another (and the entry points the benchmark itself calls) to timed
wrappers, runs a round, and puts the originals back. Each wrapper is a
span: its time goes to the span's name, and is subtracted from the
enclosing span's self time. Only totals per span name are kept.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# benchmark entry point -> span name
ENTRY_SPANS = {
    "build": "core.build",
    "classify": "classify.classify",
    "enumerate": "monomorphy.enumerate",
    "main": "cli.main",
}


class Tracer:
    def __init__(self):
        self.total = Counter()  # seconds inside spans of each name
        self.own = Counter()  # the same minus time in child spans
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # child time of each open span, innermost last
        self._active = Counter()
        self._undo = []

    def wrap(self, name, fn, after=None):
        children, active = self._children, self._active
        total, own, calls = self.total, self.own, self.calls

        def span(*args, **kwargs):
            children.append(0.0)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                active[name] -= 1
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                total[name] += elapsed
                own[name] += elapsed - inner
                calls[name] += 1
            if after is not None:
                after(result)
            return result

        return span

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg, calls):
        """Rebind the layer boundaries of pkg and the entries of calls."""
        counts, active = self.counts, self._active

        def count_subsets(report):
            counts["subsets"] += report.subsets_checked

        def count_enumerated_poly(_):
            if active["monomorphy.enumerate"]:
                counts["enum_polys"] += 1

        m, c, k, cli = pkg.monomorphy, pkg.constructions, pkg.classify, pkg.cli
        char_poly = self.wrap("charpoly.char_poly", pkg.charpoly.char_poly, count_enumerated_poly)
        self._set(m, "char_poly", char_poly)
        self._set(c, "char_poly", char_poly)
        substructure = self.wrap("core.substructure", pkg.core.substructure)
        self._set(m, "substructure", substructure)
        self._set(k, "substructure", substructure)

        enumerate_ = self.wrap("monomorphy.enumerate", m.is_k_spectrally_monomorphic, count_subsets)
        self._set(m, "is_k_spectrally_monomorphic", enumerate_)
        self._set(cli, "is_k_spectrally_monomorphic", enumerate_)
        self._set(k, "is_k_spectrally_monomorphic", self.wrap("classify.witness_enum", enumerate_))
        self._set(cli, "monomorphy_profile", self.wrap("monomorphy.profile", m.monomorphy_profile))

        self._set(k, "reduce_to_canonical_labels", self.wrap("classify.reduce", k.reduce_to_canonical_labels))
        self._set(k, "is_doubly_regular", self.wrap("constructions.drt", k.is_doubly_regular))
        self._set(k, "classify_k3", self.wrap("classify.classify", k.classify_k3))
        for name in ("classify_k3", "classify_k4", "classify_mid_k", "classify_n_minus_3"):
            self._set(cli, name, self.wrap("classify.classify", getattr(cli, name)))
        self._set(cli, "parse_document", self.wrap("documents.parse", cli.parse_document))
        self._set(cli, "document_dict", self.wrap("documents.serialize", cli.document_dict))
        self._set(cli, "verify_deletion_spectra", self.wrap("constructions.spectra", cli.verify_deletion_spectra))

        for key in list(calls):
            if key == "enumerate":
                calls[key] = enumerate_
            else:
                calls[key] = self.wrap(ENTRY_SPANS[key], calls[key])

        scalar = pkg.scalars.GaussianScalar
        init = scalar.__init__

        def counting_init(scalar_self, *args, **kwargs):
            counts["gaussian_built"] += 1
            init(scalar_self, *args, **kwargs)

        self._set(scalar, "__init__", counting_init)

    def restore(self, calls, originals):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        calls.update(originals)

    def per_layer(self, ops, plain_rate, traced_rate):
        """The per-layer metrics, per traced op unless the name says not."""
        ms = lambda seconds: 1000.0 * seconds / ops
        per_op = lambda count: count / ops
        polys = self.calls["charpoly.char_poly"]
        subsets = self.counts["subsets"]
        values = {
            "charpoly.char_poly_calls": (per_op(polys), "count/op"),
            "charpoly.char_poly_ms": (ms(self.total["charpoly.char_poly"]), "ms/op"),
            "charpoly.char_poly_us_per_call": (
                1e6 * self.total["charpoly.char_poly"] / polys if polys else 0.0,
                "us",
            ),
            "monomorphy.subsets": (per_op(subsets), "count/op"),
            "monomorphy.self_ms": (ms(self.own["monomorphy.enumerate"] + self.own["monomorphy.profile"]), "ms/op"),
            "monomorphy.polys_per_subset": (self.counts["enum_polys"] / subsets if subsets else 0.0, "ratio"),
            "classify.reduce_ms": (ms(self.total["classify.reduce"]), "ms/op"),
            "classify.witness_enum_ms": (ms(self.total["classify.witness_enum"]), "ms/op"),
            "classify.self_ms": (ms(self.own["classify.classify"]), "ms/op"),
            "core.build_ms": (ms(self.total["core.build"]), "ms/op"),
            "core.substructure_calls": (per_op(self.calls["core.substructure"]), "count/op"),
            "core.substructure_ms": (ms(self.total["core.substructure"]), "ms/op"),
            "scalars.gaussian_built": (per_op(self.counts["gaussian_built"]), "count/op"),
            "documents.parse_ms": (ms(self.total["documents.parse"]), "ms/op"),
            "documents.serialize_ms": (ms(self.total["documents.serialize"]), "ms/op"),
            "cli.self_ms": (ms(self.own["cli.main"]), "ms/op"),
            "constructions.drt_ms": (ms(self.total["constructions.drt"]), "ms/op"),
            "constructions.spectra_self_ms": (ms(self.own["constructions.spectra"]), "ms/op"),
            "trace.overhead_ops_per_s": (plain_rate - traced_rate, "1/s"),
            "trace.overhead_pct": (100.0 * (1.0 - traced_rate / plain_rate), "%"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
