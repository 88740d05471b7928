"""The antisymmetrization map into differential operators and its desk-scale
cohomology consequences.

``u1`` sends a wedge of vector fields to the alternating multi-derivation
operator (coefficient 1/p!), identity on functions.  Its image is normalized
of order <= 1, it is a chain map out of the zero-differential side, and on
order/degree-filtered slices it induces an isomorphism onto the Hochschild
cohomology of the operator side; ``cohomology_rank`` / ``hkr_report`` verify
the rank-level shadow of that statement by exact Gaussian elimination.  Both
sides are C[t]-linear, so the elimination runs on constant-coefficient words
and the coefficient-degree cap enters only as a multiplicity of the ranks.

``kontsevich_conditions`` checks a user-supplied sequence of higher
coefficients against the checkable predicates: the fixed first coefficient,
vanishing on wedges of vector fields, vanishing with a linear first slot,
equivariance under unimodular linear substitutions, and the explicit
morphism identity up to a chosen arity.  Nothing beyond the first
coefficient is ever computed here; plugins supply the rest.
"""

from __future__ import annotations

import itertools
import math
import random

from .diffop import PolyDiffOp, _d_terms, _op, gerstenhaber, hochschild_d, transform as d_transform
from .linalg import rank
from .poly import Poly, monomials_up_to
from .polyvec import PolyVec, schouten, transform as t_transform
from .scalars import CoeffDGA, _acc, frac, frac_str, ideal_powers, koszul_sort, ksign


def u1(alpha: PolyVec) -> PolyDiffOp:
    """Antisymmetrized multi-derivation operator of a poly vector field.

    f d_{i1}^...^d_{ip}  ->  (f/p!) sum_sigma sgn(sigma) d_{i_sigma(1)} x ... x d_{i_sigma(p)}
    and the identity on the degree -1 part.
    """
    n = alpha.n
    out = {}
    for w, f in alpha.terms.items():
        p = len(w)
        # p = 0 (a function) is the identity: 1/0! and one empty permutation
        scale = frac(1, math.factorial(p))
        for perm in itertools.permutations(range(p)):  # sorted, all odd: sgn(perm)
            word = tuple(_unit_mi(n, w[k]) for k in perm)
            _acc(out, word, f.scale(scale * koszul_sort(perm, perm)[0]))
    op = _op(n, alpha.alg, out)
    assert op.is_normalized() and op.order() <= 1
    return op


def _unit_mi(n, i):
    e = [0] * n
    e[i - 1] = 1
    return tuple(e)


def u1_chain_check(n, samples, seed=0) -> dict:
    """hochschild_d(u1(alpha)) must vanish exactly on every sample."""
    rng = random.Random(seed)
    failures = []
    for k in range(samples):
        alpha = random_polyvec(n, rng)
        if not hochschild_d(u1(alpha)).is_zero():
            failures.append(alpha.text())
    return {"samples": samples, "ok": not failures, "failures": failures}


def random_polyvec(n, rng, p=None):
    p = p if p is not None else rng.randint(-1, n - 1)
    words = list(itertools.combinations(range(1, n + 1), p + 1))
    out = {}
    for _ in range(2):
        w = rng.choice(words)
        f = Poly.zero(n)
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            if sum(e) > 2:
                continue
            f = f + Poly.monomial(e, rng.randint(-2, 2))
        if f:
            _acc(out, w, f)
    return PolyVec(n, out)


# ---------------------------------------------------------------------------
# filtered slices and exact cohomology ranks
# ---------------------------------------------------------------------------

class TruncationSpec:
    """Finite slice of the operator complex: order and coefficient-degree caps.

    The slice in degree p is spanned by  t^e * D[j_0;...;j_p]  with
    |e| <= max_poly_degree and |j_k| <= max_operator_order.  The Hochschild
    differential and u1 are C[t]-linear, so every slice matrix is
    ``multiplicity`` identical blocks, one per monomial t^e; the slices are
    computed on the constant-coefficient words alone, and the degree cap only
    sets that multiplicity.  The order cap is checked at runtime, not trusted.
    """

    def __init__(self, n, max_poly_degree, max_operator_order, p_min, p_max):
        if n < 1 or max_poly_degree < 0 or max_operator_order < 0:
            raise ValueError(f"a slice needs n >= 1 and nonnegative caps, got n = {n}, "
                             f"degree cap {max_poly_degree}, order cap {max_operator_order}")
        if p_min < -1 or p_max < p_min:
            raise ValueError("bad degree window")
        self.n = n
        self.max_poly_degree = max_poly_degree
        self.max_operator_order = max_operator_order
        self.p_min = p_min
        self.p_max = p_max
        # the number of monomials t^e with |e| <= max_poly_degree
        self.multiplicity = math.comb(n + max_poly_degree, n)

    def d_slice_words(self, p):
        if p < -1:
            return []
        if p == -1:
            return [()]
        mis = monomials_up_to(self.n, self.max_operator_order)
        return list(itertools.product(mis, repeat=p + 1))

    def t_slice_words(self, p):
        return list(itertools.combinations(range(1, self.n + 1), p + 1))

    def reliable(self, p):
        lower_ok = (p == -1) or (p - 1 >= self.p_min)
        return lower_ok and (p + 1 <= self.p_max) and (self.p_min <= p <= self.p_max)

    def to_dict(self):
        return {"n": self.n, "max_poly_degree": self.max_poly_degree,
                "max_operator_order": self.max_operator_order,
                "window": [self.p_min, self.p_max]}


def op_coords(op: PolyDiffOp, spec: TruncationSpec, p, where=""):
    """Coordinates {(e, w): q} of an operator in the degree-p slice of spec.

    The closure check: a term of arity other than p+1, with a multi-index
    above the order cap or a monomial above the degree cap, raises.
    """
    out = {}
    for w, c in op.terms.items():
        inside = len(w) == p + 1 and all(sum(j) <= spec.max_operator_order for j in w)
        for e, q in c.terms.items():
            r = q.rational_part()
            if len(q.coeffs) > (1 if r else 0):
                raise ValueError("slice coordinates need rational coefficients")
            if not (inside and sum(e) <= spec.max_poly_degree):
                raise ValueError(
                    f"operator leaves the declared slice at {(e, w)} {where}")
            out[e, w] = r
    return out


def d_matrix(spec: TruncationSpec, p):
    """Rows = d of each degree-p slice word, in slice-(p+1) coordinates.

    One integer row {(0, word): m} per constant-coefficient word D[w], summed
    from the signed terms of d(D[w]) and then closure-checked as a whole; the
    full slice matrix is ``spec.multiplicity`` copies of it.
    """
    z, cap, rows = (0,) * spec.n, spec.max_operator_order, []
    for w in spec.d_slice_words(p):
        row = {}
        for word, m in _d_terms(w, z):
            _acc(row, (z, word), m)
        bad = next((k for k in row if len(k[1]) != p + 2 or max(map(sum, k[1])) > cap), None)
        if bad:
            raise ValueError(f"operator leaves the declared slice at {bad} (d of degree {p})")
        rows.append(row)
    return rows


def _ranked_d(spec, p, memo):
    """(d_matrix(spec, p), its rank), built once per memo; empty below p = -1."""
    if p not in memo:
        rows = d_matrix(spec, p)
        memo[p] = (rows, rank(rows) if rows else 0)
    return memo[p]


def cohomology_rank(spec: TruncationSpec, p, memo=None):
    """(kernel rank, image-from-below rank, H^p rank) on the slice.

    Requires the window to contain the neighbors of p; a window that cannot
    support the computation raises an edge-degree error.  The ranks of the
    word matrices are multiplied by ``spec.multiplicity``.  ``memo`` keeps each
    d_matrix and its rank for the caller (hkr_report shares one across its rows).
    """
    if not spec.reliable(p):
        raise ValueError(
            f"edge degree: H^{p} needs window [{max(-1, p - 1)}, {p + 1}] inside "
            f"[{spec.p_min}, {spec.p_max}]")
    memo = {} if memo is None else memo
    rows, rank_dp = _ranked_d(spec, p, memo)
    ker = len(rows) - rank_dp
    im = _ranked_d(spec, p - 1, memo)[1]
    m = spec.multiplicity
    return (m * ker, m * im, m * (ker - im))


def u1_matrix(spec: TruncationSpec, p, images):
    """Rows = the u1 images of the T-slice words, in D-slice coordinates."""
    return [op_coords(op, spec, p, where=f"(u1 at degree {p})") for op in images]


def hkr_report(spec: TruncationSpec) -> dict:
    """Rank comparison of the T-slice with H^p of the D-slice, per degree.

    Each reliable row also certifies that u1 lands in the kernel of d, is
    injective on the slice, and spans H^p modulo the boundaries (the rank of
    [u1 | boundaries] minus the boundary rank equals both dim T and rank H).
    A window with no reliable row is not a passing verdict.  Every matrix is
    built on the constant-coefficient words, once per call, and its ranks are
    multiplied by ``spec.multiplicity``.
    """
    rows = []
    memo = {}
    m = spec.multiplicity
    for p in range(spec.p_min, spec.p_max + 1):
        t_words = spec.t_slice_words(p)
        entry = {"p": p, "dim_T_slice": m * len(t_words),
                 "window_reliable": spec.reliable(p)}
        if not spec.reliable(p):
            entry.update({"rank_H": None, "match": None, "edge_degree": True})
            rows.append(entry)
            continue
        ker, im, h = cohomology_rank(spec, p, memo)
        images = [u1(PolyVec.basis(w, spec.n)) for w in t_words]
        u_rows = u1_matrix(spec, p, images)
        injective = rank(u_rows) == len(u_rows)
        chain_map = all(not op_coords(hochschild_d(op), spec, p + 1) for op in images)
        boundaries, b_rank = _ranked_d(spec, p - 1, memo)
        composed_rank = m * (rank(u_rows + boundaries) - b_rank)
        entry.update({
            "rank_ker": ker, "rank_im": im, "rank_H": h,
            "match": h == entry["dim_T_slice"],
            "u1_injective": injective,
            "u1_chain_map": chain_map,
            "u1_rank_in_H": composed_rank,
            "u1_spans_H": composed_rank == h,
        })
        rows.append(entry)
    checked = [r for r in rows if r["window_reliable"]]
    return {"spec": spec.to_dict(), "rows": rows,
            "ok": bool(checked) and all(r["match"] and r["u1_injective"] and r["u1_spans_H"]
                                        and r["u1_chain_map"] for r in checked)}


# ---------------------------------------------------------------------------
# formality plugin checks
# ---------------------------------------------------------------------------

class FormalityPlugin:
    """A candidate sequence of higher coefficients {U_j}; U_1 is fixed.

    taylor: {j: callable taking a list of j PolyVecs, returning a PolyDiffOp}.
    The j = 1 entry defaults to u1.  This artifact never computes j >= 2
    coefficients itself; they are caller-supplied.
    """

    def __init__(self, taylor=None, name="plugin"):
        self.taylor = dict(taylor or {})
        self.taylor.setdefault(1, lambda args: u1(args[0]))
        self.name = name

    def eval(self, args):
        j = len(args)
        fn = self.taylor.get(j)
        if fn is None:
            return None
        return fn(list(args))


def trivial_plugin():
    """The first coefficient alone (provably not an L-infinity morphism)."""
    return FormalityPlugin({}, name="u1-only")


def linear_vector_field(n, a, b):
    """t_a d_b, an element of the matrix Lie algebra inside degree 0."""
    return PolyVec(n, {(b,): Poly.var(a, n)})


def formality_identity_residual(plugin: FormalityPlugin, polyvecs):
    """Explicit morphism-identity residual for T -> D at arity len(polyvecs):
    ``identity_terms`` with the Schouten bracket and zero differential
    upstairs, the Hochschild differential and Gerstenhaber bracket downstairs.
    """
    import linfty.linf as linf  # the one use of the coalgebra layers here
    args = list(polyvecs)
    sdegs = []
    for a in args:
        ds = a.degrees()
        if len(ds) != 1:
            raise ValueError("identity residual needs homogeneous inputs")
        sdegs.append(ds[0] - 1)
    out = PolyDiffOp.zero(args[0].n)
    for sign, v in linf.identity_terms(args, sdegs, plugin.eval, hochschild_d, gerstenhaber,
                                       lambda a: None, schouten):
        out = out + v.scale(sign)
    return out


def kontsevich_conditions(plugin: FormalityPlugin, n=2, samples=20, seed=0,
                          max_arity=2) -> dict:
    """Report on the checkable predicates for a candidate coefficient sequence."""
    rng = random.Random(seed)
    report = {"plugin": plugin.name, "n": n, "conditions": {}}

    # (ii), weak shadow: every coefficient must return an operator of finite
    # order on samples (the full poly-differential-operator statement about
    # the maps themselves is not decidable black-box)
    ii_fail = []
    normalized_obs = {}
    for j in sorted(plugin.taylor):
        for _ in range(max(2, samples // 4)):
            args = [random_polyvec(n, rng) for _ in range(j)]
            val = plugin.eval(args)
            if val is None:
                continue
            if not isinstance(val, PolyDiffOp):
                ii_fail.append((j, [a.text() for a in args]))
                continue
            val.order()
            # Open Question hook: normalization is reported, never asserted
            obs = normalized_obs.setdefault(j, {"normalized": 0, "total": 0})
            obs["total"] += 1
            obs["normalized"] += val.is_normalized()
    report["conditions"]["ii_operator_valued"] = {"ok": not ii_fail,
                                                  "witnesses": ii_fail[:3]}
    report["normalization_observed"] = normalized_obs

    # (iv) the first coefficient is the antisymmetrization map, exactly
    mismatches = []
    for _ in range(samples):
        alpha = random_polyvec(n, rng)
        if plugin.eval([alpha]) != u1(alpha):
            mismatches.append(alpha.text())
    report["conditions"]["iv_first_coefficient"] = {"ok": not mismatches,
                                                    "witnesses": mismatches[:3]}

    # (v) higher coefficients vanish on wedges of vector fields
    v_fail = []
    for j in sorted(k for k in plugin.taylor if k >= 2):
        for _ in range(samples):
            args = [random_polyvec(n, rng, p=0) for _ in range(j)]
            val = plugin.eval(args)
            if val is not None and not val.is_zero():
                v_fail.append((j, [a.text() for a in args]))
    report["conditions"]["v_vector_fields"] = {"ok": not v_fail,
                                               "witnesses": v_fail[:3]}

    # (vi) higher coefficients vanish when the first slot is a linear field
    vi_fail = []
    for j in sorted(k for k in plugin.taylor if k >= 2):
        for _ in range(samples):
            lin = linear_vector_field(n, rng.randint(1, n), rng.randint(1, n))
            args = [lin] + [random_polyvec(n, rng) for _ in range(j - 1)]
            val = plugin.eval(args)
            if val is not None and not val.is_zero():
                vi_fail.append((j, [a.text() for a in args]))
    report["conditions"]["vi_linear_first_slot"] = {"ok": not vi_fail,
                                                    "witnesses": vi_fail[:3]}

    # (iii) equivariance under unimodular integer substitutions
    iii_fail = []
    mats = unimodular_samples(n, rng, 4)
    for M, Minv in mats:
        for j in sorted(plugin.taylor):
            for _ in range(max(1, samples // 4)):
                args = [random_polyvec(n, rng) for _ in range(j)]
                val = plugin.eval(args)
                if val is None:
                    continue
                lhs = plugin.eval([t_transform(a, M, Minv) for a in args])
                rhs = d_transform(val, M, Minv)
                if lhs != rhs:
                    iii_fail.append((j, M))
    report["conditions"]["iii_equivariance"] = {"ok": not iii_fail,
                                                "witnesses": iii_fail[:3]}

    # (i) the morphism identity up to the requested arity; the canonical
    # probe pairs make a defective plugin fail deterministically at arity 2
    i_fail = []
    probes = {2: []}
    if n >= 2 and max_arity >= 2:
        probes[2] = [
            [PolyVec(n, {(1, 2): Poly.var(1, n)}),
             PolyVec(n, {(1, 2): Poly.var(2, n)})],
            [PolyVec(n, {(1, 2): Poly.one(n)}),
             PolyVec.from_function(Poly.var(1, n) * Poly.var(2, n))],
        ]
    for arity in range(1, max_arity + 1):
        cases = [list(p) for p in probes.get(arity, [])]
        for _ in range(samples):
            args = []
            for _ in range(arity):
                p = rng.randint(-1, n - 1)
                a = random_polyvec(n, rng, p=p)
                if a.is_zero():
                    a = PolyVec.basis(tuple(range(1, p + 2)), n)
                args.append(a)
            cases.append(args)
        for args in cases:
            res = formality_identity_residual(plugin, args)
            if not res.is_zero():
                i_fail.append({"arity": arity,
                               "args": [a.text() for a in args],
                               "residual": res.text()})
    report["conditions"]["i_linf_identity"] = {"ok": not i_fail,
                                               "witnesses": i_fail[:3]}
    report["ok"] = all(c["ok"] for c in report["conditions"].values())
    return report


def unimodular_samples(n, rng, count):
    """Integer matrices of determinant ±1 with integer inverses."""
    out = []
    # permutations and signed permutations
    for perm in itertools.permutations(range(n)):
        M = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        Minv = [[M[j][i] for j in range(n)] for i in range(n)]
        out.append((M, Minv))
    # elementary shears
    for _ in range(count):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(1, 2)
        M = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        M[i][j] = c
        Minv = [row[:] for row in M]
        Minv[i][j] = -c
        out.append((M, Minv))
    return out[:max(count, 1) + n]


# ---------------------------------------------------------------------------
# the bivector workflow over a coefficient DG algebra
# ---------------------------------------------------------------------------

def tensor_mc_residue(A: CoeffDGA, omega, d_of, bracket):
    """d(w) + 1/2 [w, w] for w = {A-basis index: g} of degree 1 in A x g, with

        d(a x g)             = d_A(a) x g + (-1)^{deg a} a x d(g),
        [a1 x g1, a2 x g2]   = (-1)^{deg a2} (a1 a2) x [g1, g2]   (deg g1 = 1);

    d_of is None where g has zero differential.
    """
    out = {}
    for ai, g in omega.items():
        for ai2, q in A.diff.get(ai, {}).items():
            _acc(out, ai2, g.scale(q))
        dg = d_of(g) if d_of else None
        if dg:
            _acc(out, ai, dg.scale(ksign(A.degrees[ai])))
    half_br = {}
    for a1, g1 in omega.items():
        for a2, g2 in omega.items():
            br = bracket(g1, g2)
            if br:
                sgn = frac(ksign(A.degrees[a2]), 2)
                for ak, q in A.mul_basis(a1, a2).items():
                    _acc(half_br, ak, br.scale(q * sgn))
    for k, v in half_br.items():
        _acc(out, k, v)
    return out


def m_adic_order(A: CoeffDGA, keys):
    """Largest k with every listed A-basis index inside the span of m^k."""
    keys = set(keys)
    if not keys:
        return None
    for k, span in enumerate(ideal_powers(A), 1):
        if not keys <= span:
            return k - 1


def mc_bivector_workflow(pi: PolyVec, A: CoeffDGA, a_elem=None) -> dict:
    """Push a Poisson bivector through the first coefficient over A.

    Forms w = a x pi for a nilpotent d_A-closed homogeneous a (auto-chosen to
    make the total degree 1 when possible), verifies the Maurer-Cartan
    equation on the vector-field side, maps to w' = a x u1(pi), and reports
    the residue d(w') + 1/2 [w', w'] on the operator side together with its
    m-adic order.  The full vanishing of that residue needs the higher
    coefficients and is reported, never asserted.
    """
    from .polyvec import is_poisson
    if not pi.is_zero() and not is_poisson(pi):
        raise ValueError("bivector is not Poisson")

    if a_elem is None:
        # prefer degree 0 (making deg w = 1), else degree 1 closed elements
        candidates = sorted(A.ideal, key=lambda i: (A.degrees[i] != 0, i))
        a_idx = next((i for i in candidates
                      if A.degrees[i] in (0, 1) and not A.basis_elem(i).d()), None)
        if a_idx is None:
            raise ValueError("no nilpotent closed element of degree 0 or 1 in A")
        a_elem = {a_idx: 1}
    else:
        a_elem = {k if isinstance(k, int) else A.index[k]: frac(v)
                  for k, v in a_elem.items()}
    a_degs = {A.degrees[i] for i in a_elem}
    if len(a_degs) > 1:
        raise ValueError("a must be homogeneous")
    a_deg = a_degs.pop() if a_degs else 0

    omega = {ai: pi.scale(q) for ai, q in a_elem.items() if q and pi}

    if tensor_mc_residue(A, omega, None, schouten):
        raise ValueError("w = a x pi does not satisfy the MC equation")

    omega_p = {ai: op for ai, g in omega.items() if (op := u1(g))}
    res_d = tensor_mc_residue(A, omega_p, hochschild_d, gerstenhaber)
    order = m_adic_order(A, res_d) if res_d else None
    return {
        "a": {A.basis[i]: frac_str(q) for i, q in a_elem.items()},
        "a_degree": a_deg,
        "omega_degree": a_deg + 1,
        "omega_prime": {A.basis[i]: op.text() for i, op in omega_p.items()},
        "residue_zero": not res_d,
        "residue": {A.basis[i]: op.text() for i, op in res_d.items()},
        "residue_m_order": order,
        "residue_m_order_ge_2": (not res_d) or (order is not None and order >= 2),
        "note": "full vanishing requires the higher coefficients; reported only",
    }
