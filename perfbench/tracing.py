"""Per-layer tracing of ``linfty`` from outside the program.

``Tracer.install()`` replaces the public entry points of each layer with
timing wrappers, on the classes and in every ``linfty`` module that imported
the name directly (``hkr`` imports ``rank``/``row_reduce``, ``linf`` imports
``canon_word``, ``cli`` imports the ``linf`` verbs, ...); ``uninstall()`` puts
the originals back.

Two kinds of wrapper:

* span wrappers record one span per call: (id, name, start, end, parent span,
  job id, leaf calls, leaf seconds);
* leaf wrappers, on the hot calls (``DgaElem`` and ``Poly`` arithmetic,
  ``canon_word``, ``CoalgElem`` construction, ``TaylorSeq.eval_word``, about
  10^6 per run), record no span: their calls and time are added to the
  innermost open span, so span memory grows with spans, not with leaf calls.

Every wrapper, span or leaf, charges its duration minus the time of the
wrapped calls nested inside it to its layer: that is the layer's self time.
Time outside any wrapped call is the benchmark's own.  The wrappers' own
bookkeeping is charged to the caller's layer, which is why the traced run's
wall time exceeds the untraced one; ``run.py`` reports that difference as the
tracing overhead.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scalars", "poly", "diffop", "coalg", "linf", "linalg", "hkr",
          "jsonio", "cli")

# name, unit, better; the order is the order of the output
LAYER_METRICS = (
    ("scalars.mul_calls", "count", "lower"),
    ("scalars.mul_nilpotent_calls", "count", "lower"),
    ("scalars.add_calls", "count", "lower"),
    ("scalars.one_calls", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_term_pairs", "count", "lower"),
    ("poly.partial_word_calls", "count", "lower"),
    ("poly.self_s", "s", "lower"),
    ("diffop.gerstenhaber_calls", "count", "lower"),
    ("diffop.circ_bar_calls", "count", "lower"),
    ("diffop.hochschild_d_calls", "count", "lower"),
    ("diffop.terms_out", "count", "lower"),
    ("diffop.self_s", "s", "lower"),
    ("coalg.canon_word_calls", "count", "lower"),
    ("coalg.canon_word_null_ratio", "ratio", "lower"),
    ("coalg.elem_inits", "count", "lower"),
    ("coalg.apply_calls", "count", "lower"),
    ("coalg.apply_words_in", "count", "lower"),
    ("coalg.apply_repeat_ratio", "ratio", "lower"),
    ("coalg.eval_word_calls", "count", "lower"),
    ("coalg.eval_word_hit_ratio", "ratio", "higher"),
    ("coalg.self_s", "s", "lower"),
    ("linf.twist_s", "s", "lower"),
    ("linf.check_s", "s", "lower"),
    ("linf.extend_s", "s", "lower"),
    ("linf.taylor_words", "count", "lower"),
    ("linf.mc_residue_calls", "count", "lower"),
    ("linf.self_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.rows_in", "count", "lower"),
    ("linalg.nnz_in", "count", "lower"),
    ("linalg.fill_ratio", "ratio", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("hkr.report_s", "s", "lower"),
    ("hkr.matrix_rows", "count", "lower"),
    ("hkr.matrix_nnz", "count", "lower"),
    ("hkr.self_s", "s", "lower"),
    ("jsonio.load_s", "s", "lower"),
    ("jsonio.bytes_out", "B", "lower"),
    ("jsonio.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _taylor_words(taylor):
    return sum(len(table) for table in taylor.maps.values())


class Tracer:
    """Spans, per-layer self time and counters for one traced pass."""

    MAX_SPANS = 50_000  # spans beyond this are timed and counted, not stored

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive = defaultdict(float)  # outermost calls of a category
        self.count = Counter()
        self.spans = []
        self.dropped_spans = 0
        self.job_id = None
        self._frames = [[0.0]]  # nested-call time of each open call
        self._open = [[0, 0, 0.0]]  # open spans: [id, leaf calls, leaf s]
        self._depth = Counter()
        self._next_id = 1
        self._seen = set()  # (operator, input) pairs applied in this job
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer, name=None, counter=None, category=None, hook=None):
        """Timing wrapper; ``name`` makes it a span wrapper, else a leaf one."""
        frames, open_spans, self_s, count = (self._frames, self._open,
                                             self.self_s, self.count)
        if name is None:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    frames.pop()
                    frames[-1][0] += dur
                    self_s[layer] += dur - frame[0]
                    parent = open_spans[-1]
                    parent[1] += 1
                    parent[2] += dur
                if counter is not None:
                    count[counter] += 1
                if hook is not None:
                    hook(args, out)
                return out
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = open_spans[-1][0]
            record = [sid, 0, 0.0]
            open_spans.append(record)
            frame = [0.0]
            frames.append(frame)
            outermost = category is not None and not self._depth[category]
            self._depth[category] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self._depth[category] -= 1
                frames.pop()
                frames[-1][0] += dur
                self_s[layer] += dur - frame[0]
                open_spans.pop()
                if outermost:
                    self.inclusive[category] += dur
                if len(self.spans) < self.MAX_SPANS:
                    self.spans.append((sid, name, t0, t1, parent, self.job_id,
                                       record[1], record[2]))
                else:
                    self.dropped_spans += 1
            if counter is not None:
                count[counter] += 1
            if hook is not None:
                hook(args, out)
            return out

        return span

    def run_job(self, job_id, fn, *args):
        """One job as a span of the benchmark's own layer."""
        self.job_id = job_id
        self._seen.clear()
        return self._wrap(fn, "bench", "job", category="job")(*args)

    # -- hooks -----------------------------------------------------------------

    def _targets(self):
        from linfty import cli, coalg, diffop, hkr, jsonio, linalg, linf, poly, scalars
        c = self.count

        def nilpotent_mul(args, out):
            if len(args[0].alg.basis) > 1:
                c["scalars.mul_nilpotent_calls"] += 1

        def poly_mul(args, out):
            if isinstance(args[1], poly.Poly):
                c["poly.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def terms_out(args, out):
            c["diffop.terms_out"] += len(out.terms)

        def canon(args, out):
            c["coalg.canon_word_null"] += out is None

        def eval_word(args, out):
            c["coalg.eval_word_hits"] += bool(out)

        def apply(args, out):
            op, x = args[0], args[1]
            c["coalg.apply_words_in"] += len(x.words)
            key = (op, tuple(sorted((w, tuple(sorted(v.coeffs.items())))
                                    for w, v in x.words.items())))
            if key in self._seen:
                c["coalg.apply_repeats"] += 1
            else:
                self._seen.add(key)

        def taylor_seq(args, out):
            c["linf.taylor_words"] += _taylor_words(out)

        def extended(args, out):
            c["linf.taylor_words"] += _taylor_words(out.taylor)

        def row_reduce(args, out):
            rows = args[0]
            c["linalg.rows_in"] += sum(1 for r in rows if r)
            c["linalg.nnz_in"] += sum(len(r) for r in rows)
            c["linalg.nnz_out"] += sum(len(r) for r in out[0])

        def matrix(args, out):
            c["hkr.matrix_rows"] += len(out)
            c["hkr.matrix_nnz"] += sum(len(r) for r in out)

        def dumps(args, out):
            c["jsonio.bytes_out"] += len(out.encode())

        D, P, E = scalars.DgaElem, poly.Poly, coalg.CoalgElem
        leaves = [
            (D, "__add__", "scalars", "scalars.add_calls", None),
            (D, "__mul__", "scalars", "scalars.mul_calls", nilpotent_mul),
            (scalars.CoeffDGA, "one", "scalars", "scalars.one_calls", None),
            (P, "__mul__", "poly", "poly.mul_calls", poly_mul),
            (P, "partial_word", "poly", "poly.partial_word_calls", None),
            (coalg, "canon_word", "coalg", "coalg.canon_word_calls", canon),
            (E, "__init__", "coalg", "coalg.elem_inits", None),
            (coalg.TaylorSeq, "eval_word", "coalg", "coalg.eval_word_calls", eval_word),
        ]
        leaves += [(D, a, "scalars", None, None)
                   for a in ("__sub__", "__neg__", "__rmul__", "scale", "d")]
        leaves += [(scalars.CoeffDGA, a, "scalars", None, None) for a in ("zero", "scalar")]
        leaves += [(P, a, "poly", None, None)
                   for a in ("__add__", "__sub__", "__neg__", "__rmul__", "scale",
                             "partial", "truncate")]
        leaves += [(diffop.PolyDiffOp, a, "diffop", None, None)
                   for a in ("__add__", "__sub__", "__neg__", "scale")]
        leaves += [(E, a, "coalg", None, None) for a in ("__add__", "__mul__", "scale")]
        leaves += [(hkr, "op_coords", "hkr", None, None)]

        spans = [  # owner, attribute, layer, counter, category, hook
            (diffop, "gerstenhaber", "diffop", "diffop.gerstenhaber_calls", None, terms_out),
            (diffop, "circ_bar", "diffop", "diffop.circ_bar_calls", None, terms_out),
            (diffop, "hochschild_d", "diffop", "diffop.hochschild_d_calls", None, terms_out),
            (diffop, "filtration_check", "diffop", None, None, None),
            (coalg.CoalgOperator, "__call__", "coalg", "coalg.apply_calls", None, apply),
            (coalg.TaylorSeq, "__init__", "coalg", None, None, None),
            (coalg, "exp", "coalg", None, None, None),
            (linf, "twist_coder", "linf", None, "linf.twist_s", None),
            (linf, "twist_morphism", "linf", None, "linf.twist_s", None),
            (linf, "twist_taylor", "linf", None, "linf.twist_s", taylor_seq),
            (linf, "conjugation_twist", "linf", None, "linf.twist_s", None),
            (linf, "mc_push", "linf", None, "linf.twist_s", None),
            (linf.LinfAlgebra, "check_square_zero", "linf", None, "linf.check_s", None),
            (linf.LinfMorphism, "check_intertwines", "linf", None, "linf.check_s", None),
            (linf, "operators_agree", "linf", None, "linf.check_s", None),
            (linf, "dgla_check", "linf", None, "linf.check_s", None),
            (linf, "mc_residue", "linf", "linf.mc_residue_calls", "linf.check_s", None),
            (linf, "extend_multilinear", "linf", None, "linf.extend_s", extended),
            (linf, "tensor_dgla", "linf", None, "linf.extend_s", None),
            (linf.LinfAlgebra, "__init__", "linf", None, None, None),
            (linf.LinfMorphism, "__init__", "linf", None, None, None),
            (linalg, "row_reduce", "linalg", "linalg.calls", None, row_reduce),
            (linalg, "rank", "linalg", None, None, None),
            (linalg, "nullspace", "linalg", None, None, None),
            (hkr, "hkr_report", "hkr", None, "hkr.report_s", None),
            (hkr, "cohomology_rank", "hkr", None, None, None),
            (hkr, "d_matrix", "hkr", None, None, matrix),
            (hkr, "u1_matrix", "hkr", None, None, matrix),
            (hkr, "u1", "hkr", None, None, None),
            (jsonio, "instance_from_json", "jsonio", None, "jsonio.load_s", None),
            (jsonio, "dumps", "jsonio", None, None, dumps),
            (cli, "run", "cli", "cli.calls", None, None),
        ]
        for owner, attr, layer, counter, hook in leaves:
            yield owner, attr, dict(layer=layer, counter=counter, hook=hook)
        for owner, attr, layer, counter, category, hook in spans:
            name = (f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type)
                    else f"{layer}.{attr}")
            yield owner, attr, dict(layer=layer, name=name, counter=counter,
                                    category=category, hook=hook)

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "linfty" or n.startswith("linfty.")]
        for owner, attr, spec in self._targets():
            orig = vars(owner)[attr]
            wrapper = self._wrap(orig, **spec)
            self._set(owner, attr, wrapper, orig)
            if isinstance(owner, type):
                continue
            for mod in modules:  # names imported with `from .x import name`
                for key, value in list(vars(mod).items()):
                    if value is orig and mod is not owner:
                        self._set(mod, key, wrapper, orig)

    def _set(self, owner, attr, value, orig):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def metrics(self, wall_s, untraced_wall_s):
        """Every per-layer metric, as {name: (value, unit)}."""
        c = self.count

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {name: c[name] for name, unit, _ in LAYER_METRICS if unit in ("count", "B")}
        values.update({f"{layer}.self_s": self.self_s[layer] for layer in LAYERS})
        values.update({k: self.inclusive[k] for k in (
            "linf.twist_s", "linf.check_s", "linf.extend_s", "hkr.report_s",
            "jsonio.load_s")})
        values.update({
            "coalg.canon_word_null_ratio": ratio("coalg.canon_word_null",
                                                 "coalg.canon_word_calls"),
            "coalg.apply_repeat_ratio": ratio("coalg.apply_repeats", "coalg.apply_calls"),
            "coalg.eval_word_hit_ratio": ratio("coalg.eval_word_hits",
                                               "coalg.eval_word_calls"),
            "linalg.fill_ratio": ratio("linalg.nnz_out", "linalg.nnz_in"),
            # the job spans' own time plus everything outside the jobs
            "bench.self_s": self.self_s["bench"] + wall_s - self.inclusive["job"],
            "trace.wall_s": wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
        })
        return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
