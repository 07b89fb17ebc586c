"""Spans and counters at the calls into each layer, for the traced run only.

``install`` rebinds module attributes of ``qelim`` (``qelim.engine.to_dnf``,
``qelim.successor.canonicalize``, ...) in the benchmark process and returns
a theory step that delegates to ``STEP``; the library itself is unchanged.
A wrapper does nothing but call through while the tracer is inactive, so
reference checks between ops are neither timed nor counted.

A span records its name, start, end, parent span and op id.  Self time is
a span's duration minus the time its child spans cover; spans nest strictly
because the benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.lift_depth = 0
        self.lifted: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        self._stack.append(len(self.sp_name))
        self._child.append(0.0)
        self.sp_name.append(nid)
        self.sp_parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.sp_op.append(self.op)
        self.sp_end.append(0.0)
        self.sp_start.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        idx = self._stack.pop()
        duration = end - self.sp_start[idx]
        self.sp_end[idx] = end
        nid = self.sp_name[idx]
        self.calls[self.names[nid]] += 1
        self.self_s[self.names[nid]] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        """Stop recording; close spans an aborted op left open."""
        self.active = False
        while self._stack:
            self.close()
        self._child.clear()
        self.lift_depth = 0
        for qf in self.lifted:
            self.counts["engine.lift_qe.qf_nodes_out"] += _tree_size(qf)
        self.lifted.clear()

    def write(self, path, comment: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(comment)
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.sp_name)):
                fh.write(
                    f"{i}\t{self.names[self.sp_name[i]]}\t{self.sp_start[i]:.9f}\t"
                    f"{self.sp_end[i]:.9f}\t{self.sp_parent[i]}\t{self.sp_op[i]}\n"
                )


def _tree_size(phi) -> int:
    todo, size = [phi], 0
    while todo:
        f = todo.pop()
        size += 1
        for child in ("lhs", "rhs", "body"):
            sub = getattr(f, child, None)
            if sub is not None:
                todo.append(sub)
    return size


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; ``after(args, result)`` runs inside the span."""
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            tracer.close()

    return traced


def _count(tracer: Tracer, name: str, fn, amount=None):
    """Count calls of fn (or ``amount(args, kwargs)`` per call); no span."""

    def counted(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1 if amount is None else amount(args, kwargs)
        return fn(*args, **kwargs)

    return counted


def install(q: SimpleNamespace, tracer: Tracer) -> SimpleNamespace:
    """Rebind the layer entry points of ``q``; return the traced theory step."""
    counts = tracer.counts

    def lift_qe(fn):
        nid = tracer.name_id("engine.lift_qe")

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = tracer.lift_depth == 0
            if outermost:
                counts["engine.lift_qe.passes"] += 1
            tracer.lift_depth += 1
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
                tracer.lift_depth -= 1
            if outermost:
                tracer.lifted.append(result)
            return result

        return traced

    def products_out(args, dnf) -> None:
        counts["dnf.to_dnf.products_out"] += len(dnf.products)
        counts["dnf.to_dnf.products_max"] = max(
            counts["dnf.to_dnf.products_max"], len(dnf.products)
        )

    def falsum(args, result) -> None:
        counts["successor.eliminate_product.falsum"] += isinstance(result, q.formula.Falsum)

    decide = _span(tracer, "engine.decide", q.engine.decide)
    q.engine.decide = q.cli.decide = decide
    q.engine.lift_qe = q.cli.lift_qe = lift_qe(q.engine.lift_qe)
    q.engine.eliminate_dnf = _count(
        tracer,
        "engine.eliminate_dnf.products_in",
        q.engine.eliminate_dnf,
        lambda args, kwargs: len(args[1].products),
    )
    q.engine.to_dnf = _span(tracer, "dnf.to_dnf", q.engine.to_dnf, products_out)
    q.dnf.simplify_literals = _count(tracer, "dnf.simplify_literals.in_to_dnf", q.dnf.simplify_literals)
    q.successor.simplify_literals = _count(
        tracer, "dnf.simplify_literals.in_successor", q.successor.simplify_literals
    )
    q.successor.canonicalize = _span(tracer, "successor.canonicalize", q.successor.canonicalize)
    q.successor.literal_truth = _count(tracer, "successor.literal_truth.calls", q.successor.literal_truth)
    q.successor.candidates = _count(tracer, "successor.candidates.calls", q.successor.candidates)
    q.engine.eval_qfree = q.formula.eval_qfree = _span(
        tracer, "formula.eval_qfree", q.formula.eval_qfree
    )
    q.formula.check_evidence = _span(tracer, "formula.check_evidence", q.formula.check_evidence)
    for cls, method in (
        (q.formula.UniversalEvidence, "instantiate"),
        (q.formula.ExistsRefuted, "refute_at"),
    ):
        setattr(cls, method, _count(tracer, "formula.instantiate.calls", cls.__dict__[method]))
    q.cli.main = _span(tracer, "cli.main", q.cli.main)
    q.cli.pretty = q.parser.pretty = _span(tracer, "parser.pretty", q.parser.pretty)
    sp = q.parser.SurfaceParser
    sp.parse = _span(tracer, "parser.parse", sp.parse)
    sp.__init__ = _count(
        tracer, "parser.chars_in", sp.__init__, lambda args, kwargs: len(args[1])
    )

    step = q.successor.STEP
    traced_step = SimpleNamespace(
        eliminate_product=_span(
            tracer, "successor.eliminate_product", step.eliminate_product, falsum
        ),
        prod_witness=_count(tracer, "successor.prod_witness.calls", step.prod_witness),
        literal_truth=step.literal_truth,
        canonical_atom=step.canonical_atom,
    )
    q.cli.STEP = traced_step
    return traced_step


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics of one traced pass over ``ops`` ops."""
    c, calls, self_s = tracer.counts, tracer.calls, tracer.self_s
    simplify = c["dnf.simplify_literals.in_to_dnf"] + c["dnf.simplify_literals.in_successor"]
    eliminated = calls["successor.eliminate_product"]
    return {
        "parser.parse.calls": calls["parser.parse"],
        "parser.parse.self_s": self_s["parser.parse"],
        "parser.pretty.self_s": self_s["parser.pretty"],
        "parser.chars_in": c["parser.chars_in"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "engine.decide.calls": calls["engine.decide"],
        "engine.decide.self_s": self_s["engine.decide"],
        "engine.lift_qe.passes": c["engine.lift_qe.passes"],
        "engine.lift_qe.passes_per_op": c["engine.lift_qe.passes"] / ops,
        "engine.lift_qe.self_s": self_s["engine.lift_qe"],
        "engine.eliminate_dnf.products_in": c["engine.eliminate_dnf.products_in"],
        "engine.lift_qe.qf_nodes_out": c["engine.lift_qe.qf_nodes_out"],
        "dnf.to_dnf.calls": calls["dnf.to_dnf"],
        "dnf.to_dnf.self_s": self_s["dnf.to_dnf"],
        "dnf.to_dnf.products_out": c["dnf.to_dnf.products_out"],
        "dnf.to_dnf.products_max": c["dnf.to_dnf.products_max"],
        "dnf.simplify_literals.calls": simplify,
        "dnf.simplify_per_product": c["dnf.simplify_literals.in_to_dnf"]
        / max(1, c["dnf.to_dnf.products_out"]),
        "successor.eliminate_product.calls": eliminated,
        "successor.eliminate_product.self_s": self_s["successor.eliminate_product"],
        "successor.eliminate_product.falsum_share": c["successor.eliminate_product.falsum"]
        / max(1, eliminated),
        "successor.prod_witness.calls": c["successor.prod_witness.calls"],
        "successor.literal_truth.calls": c["successor.literal_truth.calls"],
        "successor.canonicalize.calls": calls["successor.canonicalize"],
        "successor.canonicalize.self_s": self_s["successor.canonicalize"],
        "successor.candidates.calls": c["successor.candidates.calls"],
        "formula.eval_qfree.calls": calls["formula.eval_qfree"],
        "formula.eval_qfree.self_s": self_s["formula.eval_qfree"],
        "formula.check_evidence.self_s": self_s["formula.check_evidence"],
        "formula.instantiate.calls": c["formula.instantiate.calls"],
    }
