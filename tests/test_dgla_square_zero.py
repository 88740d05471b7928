"""dgla_check decides Q∘Q = 0 for structures built from DGLA tables.

``LinfAlgebra.from_dgla`` decides the DGLA axioms once, through ``dgla_check``,
and builds Q without expanding Q∘Q.  Under the frozen suspension convention
the two are one statement (Lada-Stasheff): the order-1, 2 and 3 components of
Q∘Q are d² = 0, Leibniz and Jacobi.  These tests pin that equivalence against
the reference walk of ``reference_checks``, on valid tables and on tables that
break one of those axioms while keeping graded antisymmetry and the grading.
"""

import collections
import importlib.util
import itertools
import json
import os
import random
from fractions import Fraction

from linfty import jsonio, samples
from linfty.coalg import GradedBasisModule
from linfty.linf import (LinfAlgebra, dgla_check, dgla_tables_from_taylor, mc_residue,
                         mc_residue_dgla, taylor_from_dgla, tensor_dgla)
from linfty.scalars import CoeffDGA, DgaElem, dga_tensor, make_truncated_poly_dga, rational_field
from reference_checks import (dgla_violations, reference_tables_from_taylor,
                              reference_taylor_from_dgla, reference_tensor_bracket,
                              square_zero_witnesses)

QQ = rational_field()
H4 = make_truncated_poly_dga([0], 4)
LAMBDA = make_truncated_poly_dga([1], 2, names=["th"])
LAMBDA_H3 = dga_tensor(make_truncated_poly_dga([1, 1], 2, names=["th1", "th2"]),
                       make_truncated_poly_dga([0], 3))


def perturbed(rng, alg):
    """alg's tables with one random degree-correct entry added to d or to the
    bracket on a canonical pair, completed by graded antisymmetry."""
    module, C = alg.module, alg.module.coeff
    d_table, bracket = alg.dgla_tables()
    d_table = {i: dict(v) for i, v in d_table.items()}
    bracket = {(i, j): dict(v) for (i, j), v in bracket.items() if i <= j}
    n = len(module)
    coeff = C.scalar(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))))
    if C.ideal and rng.random() < 0.5:
        coeff = coeff * C.basis_elem(rng.choice(sorted(C.ideal)))
    # a d entry, or a bracket on i <= j ([x, x] may be nonzero only for odd x)
    slots = [((i,), module.degree(i) + 1) for i in range(n)]
    slots += [((i, j), module.degree(i) + module.degree(j))
              for i in range(n) for j in range(i, n) if i < j or module.degree(i) % 2]
    rng.shuffle(slots)
    for key, degree in slots:
        targets = [k for k in range(n) if module.degree(k) == degree]
        if targets:
            table, at = (d_table, key[0]) if len(key) == 1 else (bracket, key)
            entry = table.setdefault(at, {})
            k = rng.choice(targets)
            entry[k] = entry[k] + coeff if k in entry else coeff
            break
    return LinfAlgebra.from_dgla(module, d_table, bracket, check=False)


def instances():
    rng = random.Random(2024)
    families = sorted(samples.FAMILIES)
    # valid DGLAs over Q[h]/(h^4), scrambled by a unimodular base change
    for _ in range(35):
        yield "scrambled", samples.sample_dgla(rng, H4)
    # tensor DGLAs A x g of base-field DGLAs
    for family in families:
        yield "tensor", tensor_dgla(H4, samples.sample_dgla(rng, QQ, family=family),
                                    check=False)
    for family in ("split_line", "heisenberg"):
        yield "tensor", tensor_dgla(LAMBDA_H3, samples.sample_dgla(rng, QQ, family=family),
                                    check=False)
    # tables with d^2 != 0, a broken Leibniz rule or a broken Jacobi identity
    for k in range(60):
        C = H4 if k % 3 else QQ
        yield "perturbed", perturbed(rng, samples.sample_dgla(rng, C,
                                                              family=families[k % len(families)]))
    for family in families:
        base = perturbed(rng, samples.sample_dgla(rng, QQ, family=family))
        yield "perturbed tensor", tensor_dgla(H4, base, check=False)


def random_omega(rng, alg):
    """A degree-1 element with coefficients in the maximal ideal, multiples of its
    first basis element (h in Q[h]/(h^4), so that h^2 [w, w] survives)."""
    module, C = alg.module, alg.module.coeff
    return {i: C.basis_elem(min(C.ideal)).scale(rng.choice((-1, 1, 2)))
            for i in range(len(module)) if module.degree(i) == 1 and rng.random() < 0.8}


def test_dgla_check_decides_square_zero():
    rng = random.Random(7)
    verdicts, failed_axioms, quadratic = [], set(), 0
    for case, (kind, alg) in enumerate(instances()):
        rep = dgla_check(alg.module, *alg.dgla_tables())
        witnesses = square_zero_witnesses(alg.taylor, 3)
        # graded antisymmetry and the grading hold by construction, so the two agree
        assert rep.ok == (not witnesses), (case, kind, rep, witnesses[:1])
        verdicts.append((kind, rep.ok))
        failed_axioms.update(v["axiom"] for v in rep.violations)
        # and Q is the suspension of these tables, not just some square-zero
        # coderivation: its MC residue is d(w) + 1/2 [w, w] on the nose
        if alg.module.coeff.ideal:
            omega = random_omega(rng, alg)
            assert mc_residue(alg, omega) == mc_residue_dgla(alg, omega), (case, kind)
            quadratic += bool(alg.bracket_of(omega, omega))
    assert len(verdicts) >= 100
    assert 3 * sum(ok for _, ok in verdicts) >= len(verdicts)
    assert all(ok for kind, ok in verdicts if kind in ("scrambled", "tensor"))
    assert {"d_squared", "leibniz", "jacobi"} <= failed_axioms
    assert not failed_axioms - {"d_squared", "leibniz", "jacobi"}
    assert quadratic >= 5


def test_dgla_check_reports_what_the_triple_loop_reports():
    # every violation, in order, as the loop that rebuilt each nested bracket
    kinds = set()
    for case, (kind, alg) in enumerate(instances()):
        tables = alg.dgla_tables()
        got = dgla_check(alg.module, *tables).violations
        assert got == dgla_violations(alg.module, *tables), (case, kind)
        if len(got) > 1:
            kinds.add(kind)
    assert {"perturbed", "perturbed tensor"} <= kinds


def test_dgla_check_on_perturbed_wide_tensors():
    # one entry added to a Lambda(th1,th2) x Q[h]/(h^3) tensor of each family:
    # every violation, in order, as the loops over every pair and triple
    rng = random.Random(1)
    axioms, broken = set(), 0
    for family in sorted(samples.FAMILIES):
        alg = perturbed(rng, tensor_dgla(LAMBDA_H3, samples.sample_dgla(rng, QQ, family=family),
                                         check=False))
        tables = alg.dgla_tables()
        got = dgla_check(alg.module, *tables).violations
        assert got == dgla_violations(alg.module, *tables), family
        axioms.update(v["axiom"] for v in got)
        broken += bool(got)
    assert broken >= 5 and {"leibniz", "jacobi"} <= axioms


def test_dgla_check_reports_one_sided_brackets():
    # an empty reverse entry breaks antisymmetry at both pairs of a bracket
    rng = random.Random(5)
    for family in sorted(samples.FAMILIES):
        alg = samples.sample_dgla(rng, QQ, family=family)
        d_table, bracket = alg.dgla_tables()
        for i, j in [(i, j) for (i, j), v in bracket.items() if v and i < j][:2]:
            one_sided = {**bracket, (j, i): {}}
            got = dgla_check(alg.module, d_table, one_sided).violations
            assert got == dgla_violations(alg.module, d_table, one_sided), (family, i, j)
            assert [v["axiom"] for v in got].count("antisymmetry") == 2, (family, i, j)


def h2_cases():
    """DGLAs over Q[h]/(h^4) whose axioms fix the h^2-coordinate of one bracket:
    (module, d, bracket, that bracket's pair, its letter, the violations,
    as (axiom, witness), once that coordinate's sign is flipped)."""
    u = H4.elem({"1": 1, "h^2": 1})
    # d x = y and [a, x] = u x, so Leibniz at (a, x) needs [a, y] = u y
    yield (GradedBasisModule("g", [("a", 0), ("x", 0), ("y", 1)], H4), {"x": {"y": 1}},
           {("a", "x"): {"x": u}, ("a", "y"): {"y": u}}, ("a", "y"), "y",
           [("leibniz", ["a", "x"]), ("leibniz", ["x", "a"])])
    # [a, x] = x, [a, y] = h^2 y and [x, y] = z, so Jacobi at (a, x, y) needs
    # [a, z] = (1 + h^2) z
    yield (GradedBasisModule("g", [("a", 0), ("x", 0), ("y", 0), ("z", 0)], H4), {},
           {("a", "x"): {"x": 1}, ("a", "y"): {"y": H4.gen("h^2")}, ("a", "z"): {"z": u},
            ("x", "y"): {"z": 1}}, ("a", "z"), "z",
           [("jacobi", list(p)) for p in itertools.permutations("axy")])


def rational_parts(module, d_table, bracket):
    """The tables with each coefficient cut down to its multiple of the unit."""
    C = module.coeff

    def part(v):
        return {i: C.scalar(c.rational_part()) for i, c in v.items() if c.rational_part()}
    return {i: part(v) for i, v in d_table.items()}, {p: part(v) for p, v in bracket.items()}


def test_dgla_check_reads_every_coordinate_of_c():
    # a flipped h^2-coordinate leaves the rational parts alone, and those pass
    for module, d_table, bracket, pair, letter, want in h2_cases():
        assert dgla_check(module, *LinfAlgebra.from_dgla(module, d_table, bracket).dgla_tables()).ok
        flipped = {**bracket, pair: {letter: H4.elem({"1": 1, "h^2": -1})}}
        tables = LinfAlgebra.from_dgla(module, d_table, flipped, check=False).dgla_tables()
        got = dgla_check(module, *tables).violations
        assert [(v["axiom"], v["witness"]) for v in got] == want
        assert got == dgla_violations(module, *tables)
        assert dgla_check(module, *rational_parts(module, *tables)).ok


def test_dgla_check_keeps_the_left_factor_of_each_product():
    # a degree-0 product with e*h = h but h*e = 0 (it fails dga_check, but an
    # instance's coeff loads unchecked): d x = e y + w, d y = h z, d w = -h z
    # give d(d x) = e*h z - h z = 0 with the coefficient of d x on the left,
    # as in q * c, and -h z with it on the right
    C = CoeffDGA(["1", "h", "e"], [0, 0, 0],
                 {**{(i, j): {} for i in range(3) for j in range(3)},
                  **{(0, i): {i: 1} for i in range(3)}, **{(i, 0): {i: 1} for i in range(3)},
                  (2, 1): {1: 1}, (2, 2): {2: 1}},
                 {i: {} for i in range(3)}, 0, [1])
    module = GradedBasisModule("g", [("x", 0), ("y", 1), ("w", 1), ("z", 2)], C)
    h, e = C.gen("h"), C.gen("e")
    d_table = {0: {1: e, 2: C.one()}, 1: {3: h}, 2: {3: -h}}
    assert dgla_check(module, d_table, {}).violations == dgla_violations(module, d_table, {})
    assert dgla_check(module, d_table, {}).ok
    del d_table[2]  # so d(d x) = e*h z = h z, reported
    assert [v["axiom"] for v in dgla_check(module, d_table, {}).violations] == ["d_squared"]


def test_dgla_check_forms_no_dga_elem_product_or_sum(monkeypatch, tmp_path):
    # on the algebras of the benchmark's twist workload, loaded from its instances
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    twist = workloads.Twist()
    ctx = {**twist.setup(), "workdir": str(tmp_path)}
    algebras = []
    for job in twist.make_jobs(ctx, seed=5, count=twist.BLOCK):
        with open(job["argv"][-1]) as fh:
            algebras.append(jsonio.instance_from_json(json.load(fh))[0])
    calls = collections.Counter()
    for name in ("__mul__", "__add__"):
        def counted(*args, _name=name, _f=getattr(DgaElem, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(DgaElem, name, counted)
    H4.one() * H4.one() + H4.one()
    assert calls == {"__mul__": 1, "__add__": 1}
    calls.clear()
    for alg in algebras:
        assert dgla_check(alg.module, *alg.dgla_tables()).ok
    assert not calls
    assert sum(bool(alg.dgla_tables()[1]) for alg in algebras) >= len(algebras) // 2
    assert sum(bool(alg.dgla_tables()[0]) for alg in algebras) >= len(algebras) // 4


def listed(tables):
    """(key, items of the table) for each (key, table), in order."""
    return [(key, list(t.items())) for key, t in tables]


def test_sparse_builders_match_the_dense_walks():
    # the same keys, values and order as the walks over every word and pair:
    # on the corpus and its tensors with Lambda(th), and on the
    # Lambda(th1,th2) x Q[h]/(h^3) tensor of every family
    rng = random.Random(3)
    bases = [(LAMBDA, alg) for _, alg in instances()]
    bases += [(LAMBDA_H3, samples.sample_dgla(rng, QQ, family=family))
              for family in sorted(samples.FAMILIES)]
    for case, (A, base) in enumerate(bases):
        ext = tensor_dgla(A, base, check=False)
        want = reference_tensor_bracket(A, base.module, base.dgla_tables()[1])
        assert list(ext.dgla_tables()[1].items()) == list(want.items()), case
        for alg in (base, ext):
            d_table, bracket = alg.dgla_tables()
            # built from the bracket entries in reverse order: the order is the builder's
            T = taylor_from_dgla(alg.module, d_table, dict(reversed(bracket.items())))
            assert listed(T.maps.items()) == listed(
                reference_taylor_from_dgla(alg.module, d_table, bracket).maps.items()), case
            assert listed(enumerate(dgla_tables_from_taylor(alg.module, T))) == listed(
                enumerate(reference_tables_from_taylor(alg.module, T))), case
