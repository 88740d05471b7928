"""Command-line front end.

Every verb maps to one library operation.  Output is canonical JSON on
stdout (byte-identical for identical inputs and seed); a timing summary goes
to stderr.  Exit codes: 0 success / checks passed, 1 a mathematical check
failed (witness in the output), 2 usage or parse errors (among them an
unreadable input file, an instance that lacks an entry the verb needs, or
whose morphism does not intertwine, outside linf-check), or a computation
that needed a symmetric word longer than the word cap, or a --coeff-algebra
that fails dga_check, or a verb given the wrong number of operands (verbs
other than the element verbs take none).  An operand that begins with '-'
goes after '--'.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from . import hkr, jsonio, selftest as selftest_mod
from .coalg import CoalgElem, OrderOverflowError, exp as coalg_exp, ln as coalg_ln
from .diffop import gerstenhaber, hochschild_d
from .grammar import ParseError, parse_element
from .linf import (conjugation_twist, linf_identity_check, mc_push,
                   mc_residue, operators_agree, twist_coder, twist_morphism,
                   MCElement)
from .polyvec import is_poisson, schouten, wedge
from .scalars import _acc

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0

# (least, most) operands of each element verb; most None means no upper bound.
# Every other verb takes none.
OPERANDS = {"schouten": (2, 2), "wedge": (2, 2), "gerstenhaber": (2, 2),
            "hochschild": (1, 1), "u1": (1, 1), "poisson-check": (1, 1), "apply": (1, None)}


def _read_document(args):
    """The JSON document named by --instance; '-' reads stdin."""
    if args.instance is None:
        raise ParseError(f"{args.verb} needs --instance (a JSON file path, or - for stdin)")
    with _loading():
        if args.instance == "-":
            return json.load(sys.stdin)
        with open(args.instance) as fh:
            return json.load(fh)


@contextlib.contextmanager
def _loading():
    """A key missing from an input document, a name it does not define, an entry
    of the wrong JSON type, or nesting deeper than the JSON decoder's recursion
    is a parse error (exit 2), not a failed check."""
    try:
        yield
    except KeyError as ex:
        raise ParseError(f"input document: missing key or unknown name {ex}") from None
    except TypeError as ex:
        raise ParseError(f"input document: wrong JSON type: {ex}") from None
    except RecursionError:
        raise ParseError("input document: JSON nested too deeply to decode") from None


def _load_instance(args, doc=None, need_omega=False, need_morphism=False):
    """(algebra, omega, morphism) from doc, by default the --instance document.

    A morphism must intertwine, except for linf-check, which reports whether
    it does.  A missing entry that the verb needs is a parse error.
    """
    if doc is None:
        doc = _read_document(args)
    with _loading():
        algebra, omega, morphism = jsonio.instance_from_json(doc, W=args.word_cap)
    if morphism is not None and args.verb != "linf-check":
        morphism.require_intertwines()
    if need_morphism and morphism is None:
        raise ParseError("instance needs a 'morphism' entry")
    if need_omega and omega is None:
        raise ParseError("instance needs an 'omega' entry")
    return algebra, omega, morphism


def _emit(doc, args):
    sys.stdout.write(jsonio.dumps(doc, pretty=(args.format == "pretty")) + "\n")


def _element_verb(args, op, kind):
    result = op(*(parse_element(t, kind, args.n) for t in args.exprs))
    doc = {"verb": args.verb, "n": args.n, "result": result.text()}
    if kind == "polyvec":
        # report both gradings to prevent off-by-one confusion
        doc["degrees"] = result.degrees()
        doc["wedge_arities"] = [p + 1 for p in result.degrees()]
    return OK, doc


def cmd_u1(args):
    n = args.n
    alpha = parse_element(args.exprs[0], "polyvec", n)
    op = hkr.u1(alpha)
    return OK, {"verb": "u1", "n": n, "result": op.text(),
                "normalized": op.is_normalized(), "order": op.order()}


def cmd_apply(args):
    n = args.n
    op = parse_element(args.exprs[0], "polydiffop", n)
    polys = [parse_element(t, "poly", n) for t in args.exprs[1:]]
    return OK, {"verb": "apply", "n": n, "result": op.apply(polys).text()}


def cmd_poisson_check(args):
    n = args.n
    pi = parse_element(args.exprs[0], "polyvec", n)
    ok = is_poisson(pi)
    return (OK if ok else CHECK_FAILED), {
        "verb": "poisson-check", "n": n, "poisson": ok,
        "self_bracket": schouten(pi, pi).text()}


def cmd_exp(args):
    algebra, omega, _ = _load_instance(args, need_omega=True)
    om = CoalgElem.from_vect(algebra.shifted, omega, args.word_cap)
    e = coalg_exp(om)
    return OK, {"verb": "exp", "result": e.to_json_list()}


def cmd_ln(args):
    doc = _read_document(args)
    algebra, _, _ = _load_instance(args, doc)
    sh = algebra.shifted
    words = {}
    with _loading():
        for entry in doc["element"]:
            c = jsonio.coeff_from_json(algebra.module.coeff, entry["coeff"])
            if c:
                _acc(words, tuple(sh.index[nm] for nm in entry["word"]), c)
    elem = CoalgElem(sh, words, args.word_cap)
    return OK, {"verb": "ln", "result": coalg_ln(elem).to_json_list()}


def cmd_mc_check(args):
    algebra, omega, _ = _load_instance(args, need_omega=True)
    res = mc_residue(algebra, omega)
    ok = not res
    return (OK if ok else CHECK_FAILED), {
        "verb": "mc-check", "mc": ok,
        "residue": jsonio.vect_to_json(algebra.module, res)}


def _mc_gate(verb, algebra, omega):
    """Residue check shared by the verbs that require a Maurer-Cartan omega."""
    res = mc_residue(algebra, omega)
    if not res:
        return None
    return (CHECK_FAILED, {"verb": verb, "mc": False,
                           "residue": jsonio.vect_to_json(algebra.module, res)})


def cmd_mc_push(args):
    algebra, omega, morphism = _load_instance(args, need_omega=True, need_morphism=True)
    gate = _mc_gate("mc-push", algebra, omega)
    if gate:
        return gate
    om = MCElement(algebra, omega, check=False)  # the gate has checked it
    pushed = mc_push(morphism, om)
    naturality = morphism.psi(om.exp()) == pushed.exp()  # mc_push asserts MC-ness
    return (OK if naturality else CHECK_FAILED), {
        "verb": "mc-push",
        "omega_prime": jsonio.vect_to_json(morphism.target.module, pushed.vect),
        "exp_naturality": naturality}


def cmd_twist(args):
    algebra, omega, _ = _load_instance(args, need_omega=True)
    if not args.allow_non_mc:
        gate = _mc_gate("twist", algebra, omega)
        if gate:
            return gate
    tw = twist_coder(algebra, omega, allow_non_mc=True)
    sq = tw.check_square_zero()
    doc = {"verb": "twist",
           "twisted_taylor": jsonio.taylor_to_json(tw.taylor),
           "square_zero": sq.ok}
    if not sq.ok:
        doc["witness"] = sq.violations[0]["witness"]
    return (OK if sq.ok else CHECK_FAILED), doc


def cmd_twist_check(args):
    algebra, omega, morphism = _load_instance(args, need_omega=True)
    if not args.allow_non_mc:
        gate = _mc_gate("twist-check", algebra, omega)
        if gate:
            return gate
    tw = twist_coder(algebra, omega, allow_non_mc=True)
    sq = tw.check_square_zero()
    doc = {"verb": "twist-check", "square_zero": sq.ok}
    ok = sq.ok
    if not sq.ok:
        doc["witness"] = sq.violations[0]["witness"]
    if sq.ok:
        conj = conjugation_twist(algebra, omega)
        agree = operators_agree(tw.Q, conj, algebra.shifted, min(args.word_cap, 2))
        doc["conjugation_agrees"] = agree.ok
        ok = ok and agree.ok
        if not agree.ok:
            doc["witness"] = agree.violations[0]["witness"]
    if morphism is not None and ok:
        om = MCElement(algebra, omega, check=args.allow_non_mc)  # else the gate did
        tm = twist_morphism(morphism, om, twisted_source=tw)
        inter = tm.check_intertwines()
        doc["morphism_intertwines"] = inter.ok
        ok = ok and inter.ok
        if not inter.ok:
            doc["witness"] = inter.violations[0]["witness"]
    return (OK if ok else CHECK_FAILED), doc


def cmd_linf_check(args):
    algebra, _, morphism = _load_instance(args, need_morphism=True)
    words = algebra.shifted.words_up_to(min(args.word_cap, 3))
    rep = linf_identity_check(morphism.taylor, algebra, morphism.target, words)
    inter = morphism.check_intertwines()
    doc = {"verb": "linf-check", "identity_paths_agree": rep.ok,
           "is_linf_morphism": inter.ok}
    if not rep.ok:
        doc["witness"] = rep.violations[0]["witness"]
    if not inter.ok:
        doc["witness"] = inter.violations[0]["witness"]
    return (OK if rep.ok and inter.ok else CHECK_FAILED), doc


def cmd_extend(args):
    from .linf import extend_multilinear
    from .scalars import CoeffDGA, dga_check
    algebra, omega, morphism = _load_instance(args, need_morphism=True)
    if args.coeff_algebra is None:
        raise ParseError("extend needs --coeff-algebra")
    with open(args.coeff_algebra) as fh, _loading():
        A = CoeffDGA.from_json(fh.read())
    axioms = dga_check(A)
    if not axioms.ok:
        v = axioms.violations[0]
        raise ParseError(f"coefficient algebra axioms fail: {v['axiom']} at {v['witness']}")
    # the base DGLAs passed dgla_check at load and A passes dga_check, so both
    # tensor DGLAs satisfy the axioms by construction
    ext = extend_multilinear(morphism, A, W=args.word_cap, check=False)
    import random
    rng = random.Random(args.seed)
    sh = ext.source.shifted
    words = sh.words_up_to(2)
    rng.shuffle(words)
    sample = words[:args.samples]
    bad = []
    for w in sample:
        x = CoalgElem(sh, {w: sh.coeff.one()}, ext.W)
        if ext.psi(ext.source.Q(x)) != ext.target.Q(ext.psi(x)):
            bad.append([sh.gen_name(i) for i in w])
    doc = {"verb": "extend", "extended_dim": len(ext.source.module),
           "sampled_words": len(sample), "morphism_axiom": not bad}
    if bad:
        doc["witness"] = bad[0]
    return (OK if not bad else CHECK_FAILED), doc


def cmd_hkr_report(args):
    spec = hkr.TruncationSpec(args.n, args.trunc, args.order,
                              args.window[0], args.window[1])
    rep = hkr.hkr_report(spec)
    return (OK if rep["ok"] else CHECK_FAILED), rep


def cmd_kontsevich_check(args):
    rep = hkr.kontsevich_conditions(hkr.trivial_plugin(), n=args.n,
                                    samples=args.samples, seed=args.seed,
                                    max_arity=args.max_arity)
    return (OK if rep["ok"] else CHECK_FAILED), rep


def cmd_selftest(args):
    rep = selftest_mod.run(seed=args.seed)
    return (OK if rep["ok"] else CHECK_FAILED), rep


COMMANDS = {
    "schouten": (functools.partial(_element_verb, op=schouten, kind="polyvec"),
                 "Schouten bracket of two poly vector fields"),
    "wedge": (functools.partial(_element_verb, op=wedge, kind="polyvec"),
              "wedge product of two poly vector fields"),
    "gerstenhaber": (functools.partial(_element_verb, op=gerstenhaber, kind="polydiffop"),
                     "Gerstenhaber bracket of two operators"),
    "hochschild": (functools.partial(_element_verb, op=hochschild_d, kind="polydiffop"),
                   "shifted Hochschild differential"),
    "apply": (cmd_apply, "apply an operator to polynomials"),
    "u1": (cmd_u1, "antisymmetrization map into operators"),
    "poisson-check": (cmd_poisson_check, "is the bivector Poisson"),
    "exp": (cmd_exp, "group-like exponential of a nilpotent element"),
    "ln": (cmd_ln, "order-1 projection of a coalgebra element"),
    "mc-check": (cmd_mc_check, "Maurer-Cartan residue of omega"),
    "mc-push": (cmd_mc_push, "pushforward of omega along the morphism"),
    "twist": (cmd_twist, "twist the structure by omega"),
    "twist-check": (cmd_twist_check, "verify the twist theorem on the instance"),
    "linf-check": (cmd_linf_check, "morphism identity, both evaluation paths"),
    "extend": (cmd_extend, "coefficient-algebra multilinear extension"),
    "hkr-report": (cmd_hkr_report, "rank comparison on filtered slices"),
    "kontsevich-check": (cmd_kontsevich_check, "predicates for the builtin plugin"),
    "selftest": (cmd_selftest, "run the deterministic invariant suite"),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="linfty", description=__doc__)
    sub = ap.add_subparsers(dest="verb")
    for verb, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("exprs", nargs="*", help="inline element expressions")
        p.add_argument("--n", type=int, default=2, help="number of variables")
        p.add_argument("--instance", default=None, help="instance JSON path or -")
        p.add_argument("--coeff-algebra", default=None,
                       help="coefficient DG algebra JSON path")
        p.add_argument("--trunc", type=int, default=2,
                       help="polynomial degree cap for slices")
        p.add_argument("--order", type=int, default=2, help="operator order cap")
        p.add_argument("--window", type=int, nargs=2, default=[-1, 1],
                       help="cohomological degree window")
        p.add_argument("--word-cap", type=int, default=6,
                       help="symmetric word order cap W")
        p.add_argument("--seed", type=int, default=selftest_mod.DEFAULT_SEED)
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--max-arity", type=int, default=2)
        p.add_argument("--format", choices=["json", "pretty"], default="json")
        p.add_argument("--allow-non-mc", action="store_true")
    return ap


# parsing does not change the parser, so one serves every run() in a process
_shared_parser = functools.cache(build_parser)


def run(argv):
    """Entry point returning the exit code (output goes to stdout/stderr)."""
    ap = _shared_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return USAGE_ERROR if ex.code not in (0,) else 0
    if not args.verb:
        ap.print_usage(sys.stderr)
        return USAGE_ERROR
    handler = COMMANDS[args.verb][0]
    least, most = OPERANDS.get(args.verb, (0, 0))
    t0 = time.time()
    try:
        if len(args.exprs) < least or (most is not None and len(args.exprs) > most):
            raise ParseError(f"{args.verb} takes {'at least' if most is None else 'exactly'} "
                             f"{least} operand(s), got {len(args.exprs)}")
        code, doc = handler(args)
    except (OSError, ValueError) as ex:  # ParseError and JSONDecodeError too
        sys.stderr.write(f"error: {ex}\n")
        return USAGE_ERROR
    except OrderOverflowError as ex:
        sys.stderr.write(f"error: word cap exceeded: {ex}\n")
        return USAGE_ERROR
    _emit(doc, args)
    sys.stderr.write(f"linfty {args.verb}: {time.time() - t0:.3f}s\n")
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
