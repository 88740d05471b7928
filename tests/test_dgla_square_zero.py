"""dgla_check decides Q∘Q = 0 for structures built from DGLA tables.

``LinfAlgebra.from_dgla`` decides the DGLA axioms once, through ``dgla_check``,
and builds Q without expanding Q∘Q.  Under the frozen suspension convention
the two are one statement (Lada-Stasheff): the order-1, 2 and 3 components of
Q∘Q are d² = 0, Leibniz and Jacobi.  These tests pin that equivalence against
the reference walk of ``reference_checks``, on valid tables and on tables that
break one of those axioms while keeping graded antisymmetry and the grading.
"""

import random
from fractions import Fraction

from linfty import samples
from linfty.linf import LinfAlgebra, dgla_check, mc_residue, mc_residue_dgla, tensor_dgla
from linfty.scalars import dga_tensor, make_truncated_poly_dga, rational_field
from reference_checks import dgla_violations, square_zero_witnesses

QQ = rational_field()
H4 = make_truncated_poly_dga([0], 4)
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
