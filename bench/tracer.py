"""Spans and counters recorded around the library's public functions.

The traced run rebinds names in the imported ``ulrich_forge`` modules
(every module namespace that holds the original function, so callers
that imported a name directly see the wrapper too) and restores them
when the pass ends.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* a *span* records (name, start, end, parent, item) for each call;
* a *leaf* is for hot functions that call no other traced function
  (``Poly.__mul__``, ``Poly.evaluate``, ``rank``, ``det``,
  ``parse_poly``).  Its calls and time are summed per enclosing span
  instead of kept one by one.  A leaf called inside another leaf only
  counts a call; its time stays in the outer leaf.

A span's self time is its duration minus its child spans and the
leaves summed under it, so inside one item the self times of all spans
plus all leaf times add up to the item's root span.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "ulrich_forge"


class Tracer:
    def __init__(self):
        # span rows: [name, start, end, parent, item, pass, covered]
        self.spans = []
        # leaf rows keyed by (span index, leaf name): [calls, seconds]
        self.leaves = {}
        self.counts = {}
        self.maxima = {}
        self.scalar_new = [0]
        self._stack = []
        self._in_leaf = False
        self._item = None
        self._pass = None
        self._undo = []

    # -- recording --------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self._item, self._pass, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index):
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][6] += end - span[1]

    def begin_item(self, pass_no, item):
        self._pass, self._item = pass_no, item
        self._open("item")

    def end_item(self):
        self._close(self._stack[-1])
        self._item = None

    def _leaf_add(self, name, calls, seconds):
        key = (self._stack[-1], name)
        row = self.leaves.get(key)
        if row is None:
            self.leaves[key] = [calls, seconds]
        else:
            row[0] += calls
            row[1] += seconds

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, probe=None):
        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, probe=None):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(self, args, kwargs)
            if self._in_leaf:
                self._leaf_add(name, 1, 0.0)
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                self.spans[self._stack[-1]][6] += elapsed
                self._leaf_add(name, 1, elapsed)

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self, lib):
        """Wrap every target; ``uninstall`` puts the originals back."""
        for module, attr, kind, name, probe in targets(lib):
            original = getattr(module, attr)
            make = self.span if kind == "span" else self.leaf
            wrapper = make(name, original, probe)
            if isinstance(module, type):
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        scalar = lib.fields.Scalar
        original_init = scalar.__init__
        cell = self.scalar_new

        def counting_init(obj, *args, **kwargs):
            cell[0] += 1
            original_init(obj, *args, **kwargs)

        self._undo.append((scalar, "__init__", original_init))
        scalar.__init__ = counting_init

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def span_rows(self):
        """[name, start, end, parent, item, pass, self_s] for every span."""
        return [row[:6] + [row[2] - row[1] - row[6]] for row in self.spans]

    def leaf_rows(self):
        """[span index, name, calls, seconds] for every summed leaf."""
        return [[index, name, calls, seconds] for (index, name), (calls, seconds) in self.leaves.items()]


# -- probes: counters taken at the same boundaries as the spans ------------


def _rank_cells(tracer, args, kwargs):
    rows = args[0]
    tracer.count("linalg.rank.cells", len(rows) * (len(rows[0]) if rows else 0))


def _poly_det_size(tracer, args, kwargs, result):
    tracer.maximum("linalg.poly_matrix_det.max_n", len(args[0]))


def _macaulay_cells(lib):
    graded = lib.graded

    def probe(tracer, args, kwargs, result):
        system, e = args[0], args[1]
        width = graded.graded_dimension(system.nvars, e)
        rows = sum(
            graded.graded_dimension(system.nvars, e - g.homogeneous_degree())
            for g in system
            if g.homogeneous_degree() <= e
        )
        tracer.maximum("graded.macaulay_cells_max", rows * width)

    return probe


def _field_moves(tracer, args, kwargs, result):
    tracer.count("quadform.sum_of_products.attempted")
    if result.quadric.field == args[0].field:
        tracer.count("quadform.sum_of_products.stayed")


def _clifford_size(tracer, args, kwargs, result):
    tracer.maximum("clifford.size_max", result.size)


def _det_points(tracer, args, kwargs, result):
    tracer.count("clifford.det_cert.tested", result.tested)
    tracer.count("clifford.det_cert.drawn", result.tested + result.skipped)


def _transversal_trials(tracer, args, kwargs, result):
    tracer.count("resultants.transversal.trials", result.trials)
    if result.verdict == "transversal":
        tracer.count("resultants.transversal.certified")


def targets(lib):
    """(owner, attribute, kind, span name, probe) for each traced boundary."""
    Poly = lib.poly.Poly
    return [
        (Poly, "__mul__", "leaf", "poly.mul", None),
        (Poly, "evaluate", "leaf", "poly.evaluate", None),
        (lib.poly, "parse_poly", "leaf", "poly.parse", None),
        (lib.linalg, "rank", "leaf", "linalg.rank", _rank_cells),
        (lib.linalg, "det", "leaf", "linalg.det", None),
        (lib.linalg, "poly_matrix_det", "span", "linalg.poly_matrix_det", _poly_det_size),
        (lib.graded, "hilbert_value", "span", "graded.hilbert_value", _macaulay_cells(lib)),
        (lib.graded, "is_smooth_hypersurface", "span", "graded.is_smooth_hypersurface", None),
        (lib.graded, "find_projective_zero", "span", "graded.find_projective_zero", None),
        (lib.quadform, "sum_of_products", "span", "quadform.sum_of_products", _field_moves),
        (lib.quadform, "gram_from_poly", "span", "quadform.gram_from_poly", None),
        (lib.clifford, "build_clifford_factorization", "span", "clifford.build", _clifford_size),
        (lib.clifford, "verify_clifford", "span", "clifford.verify", None),
        (lib.clifford, "determinant_certificate", "span", "clifford.det_cert", _det_points),
        (lib.resultants, "sylvester_resultant", "span", "resultants.sylvester", None),
        (lib.resultants, "certify_transversal", "span", "resultants.transversal", _transversal_trials),
        (lib.veronese, "lift_form", "span", "veronese.lift_form", None),
        (lib.veronese, "decompose_form", "span", "veronese.decompose_form", None),
        (lib.veronese, "ulrich_presentation", "span", "veronese.ulrich_presentation", None),
        (lib.veronese, "rank_bounds", "span", "veronese.rank_bounds", None),
        (lib.veronese, "normalize_plane_decomposition", "span", "veronese.normalize", None),
        (lib.cover, "keem_counterexample_certificate", "span", "cover.keem", None),
        (lib.cli, "main", "span", "cli.main", None),
    ]
