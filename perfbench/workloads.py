"""The four benchmark workloads: seeded inputs, the job body, and the known answer.

A job is one checked verdict.  Each workload provides

* ``setup()``: import what the workload needs from ``linfty`` and build its
  fixed objects (coefficient algebras, modules).  ``run.py`` times this in
  fresh processes and reports it as ``setup_s``.
* ``make_jobs(ctx, seed, count)``: the job inputs, generated before timing,
  in blocks of ``BLOCK`` jobs that share one mix of shapes.  Every job
  carries ``expect``, the verdict the mathematics predicts; it is never
  computed by the code under test.
* ``run(ctx, job)``: the timed part; returns the verdict as plain data.

Job shapes (operator arities and exponents, DGLA families and shears,
sparsity patterns, slice sizes) form a block drawn once from a fixed skeleton
stream, the same for every ``--seed``, and cycled; the seed draws fresh
values for every job (coefficients, signs).  Job costs are heavy-tailed in
the shape, so ``run.py`` measures whole blocks, and the throughput and
percentiles stay comparable from seed to seed and from slow to fast machines.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

SKELETON_SEED = 2005


def shape_cycle(draw, block, count):
    """``count`` job shapes: ``block`` draws from the skeleton stream, cycled."""
    sk = random.Random(SKELETON_SEED)
    shapes = [draw(sk) for _ in range(block)]
    return [shapes[k % block] for k in range(count)]


def check_verdict(expect, verdict):
    """Mismatch descriptions; empty when the verdict matches the known answer."""
    return [f"{key}: expected {want!r}, got {verdict.get(key)!r}"
            for key, want in expect.items() if verdict.get(key) != want]


def run_cli(argv):
    """``linfty.cli.run`` in process; returns (exit code, parsed stdout JSON)."""
    from linfty.cli import run
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# bracket: A2-style identities of poly differential operators over Q
# ---------------------------------------------------------------------------

class Bracket:
    """d^2 = 0, d = [mu, -], order filtration, antisymmetry and Jacobi."""

    name = "bracket"

    def setup(self):
        from linfty import diffop, poly
        return {"mu": {n: diffop.mu(n) for n in (1, 2)}, "diffop": diffop, "poly": poly}

    # Jacobi costs about the product of the three operator sizes; shapes above
    # this product (about 1 s per job here, up to 8 s unchecked) are redrawn so
    # that no single job takes a large share of a run
    MAX_SIZE_PRODUCT = 3000
    BLOCK = 60

    @staticmethod
    def _size(shape):
        return sum(len(monos) * math.prod(sum(j) + 1 for j in word)
                   for word, monos in shape)

    @staticmethod
    def _op_shape(sk, n, p):
        """Terms of one operator: derivative word and coefficient monomials."""
        def mi(k):
            e = [0] * n
            for _ in range(k):
                e[sk.randrange(n)] += 1
            return tuple(e)
        def slot():  # order 0..2 in a single variable, as in gate A2
            e = [0] * n
            e[sk.randrange(n)] = sk.randint(0, 2)
            return tuple(e)
        return [(tuple(slot() for _ in range(p + 1)),
                 sorted({mi(sk.randint(0, 2)) for _ in range(sk.randint(1, 3))}))
                for _ in range(sk.randint(1, 2))]

    def _shape(self, sk):
        while True:
            n = sk.randint(1, 2)
            ops = [self._op_shape(sk, n, sk.randint(-1, 2)) for _ in range(3)]
            if math.prod(map(self._size, ops)) <= self.MAX_SIZE_PRODUCT:
                return n, ops

    def make_jobs(self, ctx, seed, count):
        rng = random.Random(seed)
        jobs = []
        for n, shapes in shape_cycle(self._shape, self.BLOCK, count):
            ops = [[(word, [(e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in monos])
                    for word, monos in shape]
                   for shape in shapes]
            jobs.append({"n": n, "ops": ops,
                         "expect": {"d_squared_terms": 0, "d_minus_ad_mu_terms": 0,
                                    "filtration": True, "antisymmetry_terms": 0,
                                    "jacobi_terms": 0}})
        return jobs

    def run(self, ctx, job):
        diffop, Poly = ctx["diffop"], ctx["poly"].Poly
        n = job["n"]
        a, b, c = (diffop.PolyDiffOp(n, {w: Poly(n, dict(monos)) for w, monos in op})
                   for op in job["ops"])
        pa, pb = (x.degrees()[0] if x.terms else -1 for x in (a, b))
        sign = -1 if (pa * pb) % 2 else 1
        g = diffop.gerstenhaber
        da = diffop.hochschild_d(a)
        jacobi = g(a, g(b, c)) - g(g(a, b), c) - g(b, g(a, c)).scale(sign)
        return {"d_squared_terms": len(diffop.hochschild_d(da).terms),
                "d_minus_ad_mu_terms": len((da - g(ctx["mu"][n], a)).terms),
                "filtration": diffop.filtration_check(a, b),
                "antisymmetry_terms": len((g(a, b) + g(b, a).scale(sign)).terms),
                "jacobi_terms": len(jacobi.terms)}


# ---------------------------------------------------------------------------
# twist: `linfty twist-check --instance FILE` over Q[h]/(h^4)
# ---------------------------------------------------------------------------

def _coeff_vector(cdoc, value):
    """A coefficient of an instance document as {C-basis index: Fraction}."""
    if isinstance(value, str):
        return {cdoc["unit"]: Fraction(value)}
    names = [b["name"] for b in cdoc["basis"]]
    return {names.index(k): Fraction(q) for k, q in value.items()}


def mc_residue_closed_form(doc):
    """d(w) + 1/2 [w, w] for the omega of an instance document, from its tables.

    The known answer for the twist workload's MC gate.  It reads the DG Lie
    algebra tables and the coefficient structure constants straight from the
    JSON and shares no code with ``linfty``.  Returns {generator: {C index: q}}
    with zero entries dropped.
    """
    cdoc = doc["coeff"]
    mul = {(i, j): {k: Fraction(q) for k, q in entries} for i, j, entries in cdoc["mul"]}
    deg = {b["name"]: b["degree"] for b in doc["algebra"]["basis"]}
    d = dict((g, v) for g, v in doc["algebra"]["d"])
    bracket = {}
    for (g1, g2), v in doc["algebra"]["bracket"]:
        bracket[(g1, g2)] = (v, 1)
        if (g2, g1) not in bracket:
            bracket[(g2, g1)] = (v, -(-1) ** (deg[g1] * deg[g2]))
    omega = {g: _coeff_vector(cdoc, c) for g, c in doc.get("omega", {}).items()}
    residue = {}

    def cmul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                for k, q in mul.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + x * y * q
        return out

    def add(g, c, scale=1):
        acc = residue.setdefault(g, {})
        for k, q in c.items():
            acc[k] = acc.get(k, 0) + scale * q

    for g, c in omega.items():
        for h, e in d.get(g, {}).items():
            add(h, cmul(c, _coeff_vector(cdoc, e)))
        for g2, c2 in omega.items():
            v, sign = bracket.get((g, g2), ({}, 1))
            for h, e in v.items():
                add(h, cmul(cmul(c, c2), _coeff_vector(cdoc, e)), Fraction(sign, 2))
    return {g: {k: q for k, q in v.items() if q} for g, v in residue.items()
            if any(v.values())}


class Twist:
    """Twist theorem through the CLI: Q_w^2 = 0, conjugation agrees, Psi_w intertwines."""

    name = "twist"
    NON_MC_FAMILY = "odd_square"  # the one family whose omega can fail MC
    BLOCK = 70

    def setup(self):
        import linfty.cli  # noqa: F401  (the job path)
        from linfty import samples, scalars
        return {"C": scalars.make_truncated_poly_dga([0], 4), "samples": samples}

    def make_jobs(self, ctx, seed, count):
        from linfty.coalg import GradedBasisModule
        from linfty.jsonio import instance_to_json
        from linfty.linf import LinfAlgebra, LinfMorphism
        samples, C = ctx["samples"], ctx["C"]
        families = sorted(samples.FAMILIES)

        def draw(sk):
            # the skeleton picks the shears of each base change, and with them
            # the sparsity of the tables and the job's cost
            non_mc = sk.random() < 0.1
            family = self.NON_MC_FAMILY if non_mc else sk.choice(families)
            module = GradedBasisModule(family, samples.FAMILIES[family][0], C)
            changes = [samples.unimodular_by_degree(module, sk)
                       for _ in range(1 + (sk.random() < 0.5))]
            # c^2 = 0 in Q[h]/(h^4) exactly when c starts at h^2; on odd_square
            # ([y, y] = z) that decides MC-ness, elsewhere every omega is MC
            powers = (1,) if non_mc else ((2, 3) if family == self.NON_MC_FAMILY
                                          else (1, 2, 3))
            omega = {i: sk.choice(powers) for i in range(len(module))
                     if module.degree(i) == 1}
            return module, changes, omega

        def signed(change, rng):
            """The base change with each new basis vector's sign flipped by the seed."""
            P, Pinv = change
            signs = [rng.choice((-1, 1)) for _ in P]
            return ([[s * x for x in row] for s, row in zip(signs, P)],
                    [[x * s for x, s in zip(row, signs)] for row in Pinv])

        rng = random.Random(seed)
        jobs = []
        for k, (module, changes, powers) in enumerate(shape_cycle(draw, self.BLOCK, count)):
            _, d0, br0 = samples.FAMILIES[module.name]
            base = LinfAlgebra.from_dgla(module, d0, br0, 6, check=False)
            d1, b1 = samples.change_basis_dgla(
                module, *base.dgla_tables(), *signed(changes[0], rng), C)
            alg = LinfAlgebra.from_dgla(module, d1, b1, 6, check=False)
            morphism = None
            if len(changes) > 1:
                P, Pinv = signed(changes[1], rng)
                d2, b2 = samples.change_basis_dgla(module, d1, b1, P, Pinv, C)
                target = LinfAlgebra.from_dgla(module, d2, b2, 6, check=False)
                table = {j: {i: C.scalar(Pinv[j][i]) for i in range(len(module))
                             if Pinv[j][i]} for j in range(len(module))}
                morphism = LinfMorphism.strict(alg, target, table, check=False)
            omega = {i: C.gen("h" if h == 1 else f"h^{h}").scale(
                Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))))
                for i, h in powers.items()}
            doc = instance_to_json(alg, omega, morphism)
            path = os.path.join(ctx["workdir"], f"twist_{k:05d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            if mc_residue_closed_form(doc):
                expect = {"exit": 1, "mc": False}
            else:
                expect = {"exit": 0, "mc": None, "square_zero": True,
                          "conjugation_agrees": True,
                          "morphism_intertwines": True if morphism else None}
            jobs.append({"argv": ["twist-check", "--instance", path], "expect": expect})
        return jobs

    def run(self, ctx, job):
        code, doc = run_cli(job["argv"])
        return {"exit": code, **{k: doc.get(k) for k in (
            "mc", "square_zero", "conjugation_agrees", "morphism_intertwines")}}


# ---------------------------------------------------------------------------
# extend: A8-style multilinear extension over Lambda(th1,th2) x Q[h]/(h^3)
# ---------------------------------------------------------------------------

class Extend:
    """Morphism axiom on sampled words; zero terms beyond the degree-count bound."""

    name = "extend"
    AXIOM_WORDS, BOUND_WORDS, W = 12, 10, 6
    BLOCK = 30

    def setup(self):
        from linfty import coalg, linf, scalars
        A = scalars.dga_tensor(
            scalars.make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
            scalars.make_truncated_poly_dga([0], 3))
        return {"A": A, "Q": scalars.rational_field(), "coalg": coalg, "linf": linf,
                "a_deg1": [i for i in range(len(A)) if A.degrees[i] == 1 and i in A.ideal]}

    def make_jobs(self, ctx, seed, count):
        from linfty.coalg import GradedBasisModule
        Q = ctx["Q"]

        def draw(sk):
            # the skeleton fixes the sparsity pattern, the seed the nonzero values
            dim = sk.randint(2, 3)
            degs = sorted(sk.choice([0, 1]) for _ in range(dim))
            # the Taylor tables only need the shifted degrees of the words
            sh = GradedBasisModule("s", [(f"s{i}", d - 1) for i, d in enumerate(degs)], Q)
            pattern = {}
            for j in (1, 2, 3):
                for w in sh.words(j):
                    want = sum(sh.degree(i) for i in w)
                    gs = [g for g in range(dim) if degs[g] - 1 == want and sk.random() < 0.8]
                    if gs:
                        pattern.setdefault(j, {})[w] = gs
            g0 = [i for i in range(dim) if degs[i] == 0]
            omega = [(a, sk.choice(g0)) for a in ctx["a_deg1"] if sk.random() < 2 / 3] \
                if g0 else []
            return degs, pattern, omega, sk.randrange(1 << 30)

        rng = random.Random(seed)
        return [{"degrees": degs,
                 "taylor": {j: {w: {g: rng.choice((-2, -1, 1, 2)) for g in gs}
                                for w, gs in tab.items()} for j, tab in pattern.items()},
                 "omega": [(a, g, rng.choice((-1, 1))) for a, g in omega],
                 "word_seed": word_seed,
                 "expect": {"axiom_failures": 0, "beyond_bound_nonzero": 0}}
                for degs, pattern, omega, word_seed in shape_cycle(draw, self.BLOCK, count)]

    def run(self, ctx, job):
        coalg, linf, A, Q = ctx["coalg"], ctx["linf"], ctx["A"], ctx["Q"]
        degs, W = job["degrees"], self.W
        ms = coalg.GradedBasisModule("s", [(f"s{i}", d) for i, d in enumerate(degs)], Q)
        mt = coalg.GradedBasisModule("t", [(f"t{i}", d) for i, d in enumerate(degs)], Q)
        src, tgt = linf.LinfAlgebra.abelian(ms, W), linf.LinfAlgebra.abelian(mt, W)
        maps = {j: {w: {g: Q.scalar(q) for g, q in v.items()} for w, v in tab.items()}
                for j, tab in job["taylor"].items()}
        psi = linf.LinfMorphism(src, tgt, coalg.TaylorSeq(src.shifted, tgt.shifted,
                                                          maps, "morphism"), check=False)
        ext = linf.extend_multilinear(psi, A, W, check=False)
        sh, pairs = ext.source.shifted, ext.source.tensor_pairs
        words = sh.words_up_to(2)
        random.Random(job["word_seed"]).shuffle(words)
        failures = 0
        for w in words[:self.AXIOM_WORDS]:
            x = coalg.CoalgElem(sh, {w: Q.one()}, ext.W)
            failures += ext.psi(ext.source.Q(x)) != ext.target.Q(ext.psi(x))
        pidx = {p: i for i, p in enumerate(pairs)}
        omv = {pidx[(a, g)]: Q.scalar(q) for a, g, q in job["omega"]}
        nonzero = checked = 0
        if job["omega"]:
            om = coalg.CoalgElem.from_vect(sh, omv, W)
            r0 = min(degs)
            for w in words[:self.BOUND_WORDS]:
                if not w:
                    continue
                # degree count: (d^{j+k} Psi_A)(w^k c) = 0 once k > p + 1 - j - r0
                k0 = max(0, sum(degs[pairs[i][1]] for i in w) + 1 - len(w) - r0)
                power = coalg.CoalgElem.unit(sh, W)
                for k in range(1, k0 + 3):
                    power = power * om
                    if power.is_zero():
                        break
                    if k > k0:
                        for u in power.words:
                            checked += 1
                            nonzero += bool(ext.taylor.eval_word(u + w))
        return {"axiom_failures": failures, "beyond_bound_nonzero": nonzero,
                "beyond_bound_checked": checked}


# ---------------------------------------------------------------------------
# hkr: `linfty hkr-report --window -1 1` on seeded slices
# ---------------------------------------------------------------------------

class Hkr:
    """rank H^p = C(n, p+1) * C(n+trunc, n) for p in {-1, 0}, and "ok": true."""

    name = "hkr"
    # n, trunc, order in {2,3,4} with n + trunc + order <= 10: the four larger
    # slices take 0.4-2.5 s each and would leave a 20 s run short of 100 jobs.
    SLICES = [(n, t, o) for n in (2, 3, 4) for t in (2, 3, 4) for o in (2, 3, 4)
              if n + t + o <= 10]
    BLOCK = len(SLICES)

    def setup(self):
        import linfty.cli  # noqa: F401  (the job path)
        return {}

    def make_jobs(self, ctx, seed, count):
        rng = random.Random(seed)
        order = []
        while len(order) < count:
            cycle = list(self.SLICES)
            rng.shuffle(cycle)
            order.extend(cycle)
        return [{"argv": ["hkr-report", "--n", str(n), "--trunc", str(t),
                          "--order", str(o), "--window", "-1", "1"],
                 "expect": {"exit": 0, "ok": True,
                            "rank_H": [math.comb(n, p + 1) * math.comb(n + t, n)
                                       for p in (-1, 0)]}}
                for n, t, o in order[:count]]

    def run(self, ctx, job):
        code, doc = run_cli(job["argv"])
        ranks = {row["p"]: row["rank_H"] for row in doc["rows"]}
        return {"exit": code, "ok": doc["ok"], "rank_H": [ranks.get(p) for p in (-1, 0)]}


WORKLOADS = {w.name: w for w in (Bracket(), Twist(), Extend(), Hkr())}
