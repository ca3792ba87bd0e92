"""Per-layer tracing from outside the package.

The package's modules import each other with `from .x import y`, so one
function has a binding in every module that imports it. Tracer.install
replaces every binding of each traced function, in every loaded
`diffops` module, with a wrapper that records a span. Spans nest on one
stack, so a span's self time is its duration minus the durations of the
spans it directly contains. Work counters are derived from the call's
arguments and result after the clock has stopped. The tracer clocks its
own time in every wrapper (all of it but the wrapper's call frame and two
clock reads), so the overhead it adds to the traced run is reported as
measured, not as a difference of two noisy runs.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) -> layer span name
TRACED = {
    ("opgraph", "build_space"): "opgraph.build_space",
    ("opgraph", "adjacency_matrix"): "opgraph.adjacency_matrix",
    ("exactalg", "count_order_k"): "exactalg.count_order_k",
    ("exactalg", "char_poly"): "exactalg.char_poly",
    ("closedform", "charpoly_computed"): "closedform.charpoly_computed",
    ("closedform", "charpoly_a_closed"): "closedform.closed_form",
    ("closedform", "charpoly_b_closed"): "closedform.closed_form",
    ("closedform", "check_charpoly_recurrence"): "closedform.check_charpoly_recurrence",
    ("closedform", "check_bridge_identity"): "closedform.check_bridge_identity",
    ("sequences", "derive_recurrence"): "sequences.derive_recurrence",
    ("sequences", "make_record"): "sequences.make_record",
    ("sequences", "oeis_compare"): "sequences.oeis_compare",
    ("chains", "enumerate_chains"): "chains.enumerate_chains",
    ("chains", "per_start_counts"): "chains.per_start_counts",
    ("chains", "export_tree_dot"): "chains.export_tree_dot",
    ("symcalc3", "chain_vanishes"): "symcalc3.chain_vanishes",
    ("symcalc3", "compose_and_check"): "symcalc3.compose_and_check",
    ("symcalc3", "verify_identities"): "symcalc3.verify_identities",
    ("cli", "main"): "cli.main",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _ops(chain):
    return tuple(getattr(chain, "ops", chain))


def _field_degree(field):
    comps = getattr(field, "components", (field,))
    return max(c.degree() for c in comps)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self.overhead_s = 0.0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["diffops"]
        for (mod, fn_name), name in TRACED.items():
            original = getattr(getattr(pkg, mod, None), fn_name, None)
            if original is not None:
                self._rebind(original, self._wrap(name, original))
        # Fixture reads are part of oeis_compare's own work: counted, not
        # timed as a span of their own.
        load_fixture = getattr(getattr(pkg, "sequences", None), "load_fixture", None)
        if load_fixture is not None:
            self._rebind(load_fixture, self._count_fixture_bytes(load_fixture))

    def _rebind(self, original, wrapper) -> None:
        """Replace every binding of `original` in the loaded diffops modules."""
        for name, module in list(sys.modules.items()):
            if name != "diffops" and not name.startswith("diffops."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            frame = [name, 0.0, 0.0]
            tracer.stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, entered)
                raise
            tracer._close(frame, entered, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_fixture_bytes(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            returned = perf_counter()
            path = sys.modules["diffops.sequences"].fixture_path(*args, **kwargs)
            self.counts["oeis_compare.fixture_bytes_read"] += os.path.getsize(path)
            self.overhead_s += perf_counter() - returned
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, entered, *call) -> None:
        returned = perf_counter()
        self.stack.pop()
        name, start, covered = frame
        duration = returned - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if call:
            self._count(name, *call)
        done = perf_counter()
        # The tracer's own time: from entering the wrapper until the clock
        # starts, and from the return until the counting is done.
        self.overhead_s += (start - entered) + (done - returned)
        if self.stack:
            # Counting time is excluded from the parent's self time too.
            self.stack[-1][2] += done - start

    # -- work counters ------------------------------------------------------

    def _count(self, name, args, kwargs, result):
        parent = self.stack[-1][0] if self.stack else None
        if name == "exactalg.count_order_k":
            self.counts["count_order_k.steps"] += _arg(args, kwargs, 1, "k") - 1
            self.maxima["count_order_k.result_bits"] = max(
                self.maxima["count_order_k.result_bits"], result.bit_length()
            )
            if any(frame[0] == "sequences.make_record" for frame in self.stack):
                self.counts["make_record.count_calls"] += 1
        elif name == "exactalg.char_poly":
            matrix = _arg(args, kwargs, 0, "M")
            self.counts["char_poly.matrix_products"] += matrix.order - 1
            self.distinct["char_poly"].add(matrix)
            self.maxima["char_poly.coeff_bits"] = max(
                [self.maxima["char_poly.coeff_bits"]] + [abs(c).bit_length() for c in result.coeffs]
            )
        elif name == "closedform.charpoly_computed":
            family = _arg(args, kwargs, 1, "family")
            self.distinct["charpoly_computed"].add((_arg(args, kwargs, 0, "n"), str(getattr(family, "value", family)).upper()))
        elif name == "chains.enumerate_chains":
            self.counts["enumerate_chains.chains_emitted"] += len(result)
        elif name == "chains.export_tree_dot":
            self.counts["export_tree_dot.dot_bytes"] += len(result.encode("utf-8"))
        elif name == "symcalc3.compose_and_check" and parent == "symcalc3.chain_vanishes":
            field = _arg(args, kwargs, 1, "field")
            self.counts["chain_vanishes.applications"] += 1
            if _field_degree(field) == len(_ops(_arg(args, kwargs, 0, "chain"))):
                self.counts["chain_vanishes.top_degree_applications"] += 1

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        c, m = self.counts, self.maxima

        def ratio(num, den):
            return num / den if den else 0.0

        records = self.calls["sequences.make_record"]
        return {
            "opgraph.build_space.calls": self.calls["opgraph.build_space"],
            "opgraph.build_space.self_s": self.self_s["opgraph.build_space"],
            "opgraph.adjacency_matrix.self_s": self.self_s["opgraph.adjacency_matrix"],
            "exactalg.count_order_k.calls": self.calls["exactalg.count_order_k"],
            "exactalg.count_order_k.self_s": self.self_s["exactalg.count_order_k"],
            "exactalg.count_order_k.steps": c["count_order_k.steps"],
            "exactalg.count_order_k.result_bits_max": m["count_order_k.result_bits"],
            "exactalg.char_poly.calls": self.calls["exactalg.char_poly"],
            "exactalg.char_poly.self_s": self.self_s["exactalg.char_poly"],
            "exactalg.char_poly.matrix_products": c["char_poly.matrix_products"],
            "exactalg.char_poly.distinct_ratio": ratio(len(self.distinct["char_poly"]), self.calls["exactalg.char_poly"]),
            "exactalg.char_poly.coeff_bits_max": m["char_poly.coeff_bits"],
            "closedform.charpoly_computed.calls": self.calls["closedform.charpoly_computed"],
            "closedform.charpoly_computed.distinct_ratio": ratio(
                len(self.distinct["charpoly_computed"]), self.calls["closedform.charpoly_computed"]
            ),
            "closedform.closed_form.self_s": self.self_s["closedform.closed_form"],
            "closedform.check_charpoly_recurrence.self_s": self.self_s["closedform.check_charpoly_recurrence"],
            "closedform.check_bridge_identity.self_s": self.self_s["closedform.check_bridge_identity"],
            "sequences.derive_recurrence.calls": self.calls["sequences.derive_recurrence"],
            "sequences.derive_recurrence.self_s": self.self_s["sequences.derive_recurrence"],
            "sequences.make_record.self_s": self.self_s["sequences.make_record"],
            "sequences.make_record.count_calls": ratio(c["make_record.count_calls"], records),
            "sequences.oeis_compare.self_s": self.self_s["sequences.oeis_compare"],
            "sequences.oeis_compare.fixture_bytes_read": c["oeis_compare.fixture_bytes_read"],
            "chains.enumerate_chains.calls": self.calls["chains.enumerate_chains"],
            "chains.enumerate_chains.self_s": self.self_s["chains.enumerate_chains"],
            "chains.enumerate_chains.chains_emitted": c["enumerate_chains.chains_emitted"],
            "chains.per_start_counts.self_s": self.self_s["chains.per_start_counts"],
            "chains.export_tree_dot.self_s": self.self_s["chains.export_tree_dot"],
            "chains.export_tree_dot.dot_bytes": c["export_tree_dot.dot_bytes"],
            "symcalc3.chain_vanishes.calls": self.calls["symcalc3.chain_vanishes"],
            "symcalc3.chain_vanishes.self_s": self.self_s["symcalc3.chain_vanishes"],
            "symcalc3.chain_vanishes.top_degree_ratio": ratio(
                c["chain_vanishes.top_degree_applications"], c["chain_vanishes.applications"]
            ),
            "symcalc3.compose_and_check.calls": self.calls["symcalc3.compose_and_check"],
            "symcalc3.compose_and_check.self_s": self.self_s["symcalc3.compose_and_check"],
            "symcalc3.verify_identities.self_s": self.self_s["symcalc3.verify_identities"],
            "cli.process_s": self.total_s["cli.main"],
            "cli.main.self_s": self.self_s["cli.main"],
            "trace.overhead_s": self.overhead_s,
        }


# Counters that must repeat exactly between two runs of one seed.
DETERMINISTIC = (
    "opgraph.build_space.calls",
    "exactalg.count_order_k.calls",
    "exactalg.count_order_k.steps",
    "exactalg.count_order_k.result_bits_max",
    "exactalg.char_poly.calls",
    "exactalg.char_poly.matrix_products",
    "exactalg.char_poly.distinct_ratio",
    "closedform.charpoly_computed.calls",
    "sequences.derive_recurrence.calls",
    "sequences.make_record.count_calls",
    "sequences.oeis_compare.fixture_bytes_read",
    "chains.enumerate_chains.calls",
    "chains.enumerate_chains.chains_emitted",
    "chains.export_tree_dot.dot_bytes",
    "symcalc3.chain_vanishes.calls",
    "symcalc3.chain_vanishes.top_degree_ratio",
    "symcalc3.compose_and_check.calls",
)
