"""Command-line front end.

Every verb maps to one library operation.  Output is canonical JSON on
stdout (byte-identical for identical inputs and seed); a timing summary goes
to stderr.  Exit codes: 0 success / checks passed, 1 a mathematical check
failed (witness in the output), 2 usage or parse errors, or a computation
that needed a symmetric word longer than the word cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import hkr, jsonio, selftest as selftest_mod
from .coalg import (CoalgElem, OrderOverflowError, exp as coalg_exp, ln as coalg_ln,
                    vect_is_zero)
from .diffop import gerstenhaber, hochschild_d
from .grammar import ParseError, parse_element
from .linf import (conjugation_twist, linf_identity_check, mc_push,
                   mc_residue, operators_agree, twist_coder, twist_morphism,
                   MCElement)
from .polyvec import is_poisson, schouten, wedge
from .scalars import frac_str

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0


def _load_instance(args):
    if args.instance == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.instance) as fh:
            doc = json.load(fh)
    return jsonio.instance_from_json(doc, W=args.word_cap)


def _emit(doc, args):
    sys.stdout.write(jsonio.dumps(doc, pretty=(args.format == "pretty")) + "\n")


def _element_verb(args, op, kind):
    n = args.n
    xs = [parse_element(t, kind, n) for t in args.exprs]
    result = op(*xs)
    doc = {"verb": args.verb, "n": n, "result": result.text()}
    if kind == "polyvec":
        # report both gradings to prevent off-by-one confusion
        doc["degrees"] = result.degrees()
        doc["wedge_arities"] = [p + 1 for p in result.degrees()]
    return OK, doc


def cmd_schouten(args):
    return _element_verb(args, schouten, "polyvec")


def cmd_wedge(args):
    return _element_verb(args, wedge, "polyvec")


def cmd_gerstenhaber(args):
    return _element_verb(args, gerstenhaber, "polydiffop")


def cmd_hochschild(args):
    return _element_verb(args, hochschild_d, "polydiffop")


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
    algebra, omega, _ = _load_instance(args)
    if omega is None:
        raise ParseError("instance needs an 'omega' entry", 0)
    om = CoalgElem.from_vect(algebra.shifted, omega, args.word_cap)
    e = coalg_exp(om)
    return OK, {"verb": "exp", "result": e.to_json_list()}


def cmd_ln(args):
    if args.instance == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.instance) as fh:
            doc = json.load(fh)
    algebra, _, _ = jsonio.instance_from_json(doc, W=args.word_cap)
    sh = algebra.shifted
    words = {}
    for entry in doc["element"]:
        w = tuple(sh.index[nm] for nm in entry["word"])
        c = jsonio.coeff_from_json(algebra.module.coeff, entry["coeff"])
        x = words.get(w)
        words[w] = c if x is None else x + c
    elem = CoalgElem(sh, words, args.word_cap)
    return OK, {"verb": "ln", "result": coalg_ln(elem).to_json_list()}


def cmd_mc_check(args):
    algebra, omega, _ = _load_instance(args)
    res = mc_residue(algebra, omega or {})
    ok = vect_is_zero(res)
    return (OK if ok else CHECK_FAILED), {
        "verb": "mc-check", "mc": ok,
        "residue": jsonio.vect_to_json(algebra.module, res)}


def _mc_gate(algebra, omega):
    """Residue check shared by the verbs that require a Maurer-Cartan omega."""
    res = mc_residue(algebra, omega or {})
    if vect_is_zero(res):
        return None
    return (CHECK_FAILED, {"mc": False,
                           "residue": jsonio.vect_to_json(algebra.module, res)})


def cmd_mc_push(args):
    algebra, omega, morphism = _load_instance(args)
    if morphism is None:
        raise ParseError("instance needs a 'morphism' entry", 0)
    gate = _mc_gate(algebra, omega)
    if gate:
        gate[1]["verb"] = "mc-push"
        return gate
    om = MCElement(algebra, omega or {}, check=True)
    pushed = mc_push(morphism, om)
    naturality = morphism.psi(om.exp()) == pushed.exp()
    ok = naturality and vect_is_zero(mc_residue(morphism.target, pushed.vect))
    return (OK if ok else CHECK_FAILED), {
        "verb": "mc-push",
        "omega_prime": jsonio.vect_to_json(morphism.target.module, pushed.vect),
        "exp_naturality": naturality}


def cmd_twist(args):
    algebra, omega, _ = _load_instance(args)
    if not args.allow_non_mc:
        gate = _mc_gate(algebra, omega)
        if gate:
            gate[1]["verb"] = "twist"
            return gate
    tw = twist_coder(algebra, omega or {}, allow_non_mc=True)
    sq = tw.check_square_zero(min(args.word_cap, 3))
    doc = {"verb": "twist",
           "twisted_taylor": jsonio.taylor_to_json(tw.taylor),
           "square_zero": sq.ok}
    if not sq.ok:
        doc["witness"] = sq.violations[0]["witness"]
    return (OK if sq.ok else CHECK_FAILED), doc


def cmd_twist_check(args):
    algebra, omega, morphism = _load_instance(args)
    if not args.allow_non_mc:
        gate = _mc_gate(algebra, omega)
        if gate:
            gate[1]["verb"] = "twist-check"
            return gate
    tw = twist_coder(algebra, omega or {}, allow_non_mc=True)
    sq = tw.check_square_zero(min(args.word_cap, 3))
    doc = {"verb": "twist-check", "square_zero": sq.ok}
    ok = sq.ok
    if not sq.ok:
        doc["witness"] = sq.violations[0]["witness"]
    if sq.ok:
        conj = conjugation_twist(algebra, omega or {})
        agree = operators_agree(tw.Q, conj, algebra.shifted, algebra.W,
                                min(args.word_cap, 2))
        doc["conjugation_agrees"] = agree.ok
        ok = ok and agree.ok
        if not agree.ok:
            doc["witness"] = agree.violations[0]["witness"]
    if morphism is not None and ok:
        om = MCElement(algebra, omega or {}, check=True)
        tm = twist_morphism(morphism, om, twisted_source=tw)
        inter = tm.check_intertwines(min(args.word_cap, 2))
        doc["morphism_intertwines"] = inter.ok
        ok = ok and inter.ok
        if not inter.ok:
            doc["witness"] = inter.violations[0]["witness"]
    return (OK if ok else CHECK_FAILED), doc


def cmd_linf_check(args):
    algebra, _, morphism = _load_instance(args)
    if morphism is None:
        raise ParseError("instance needs a 'morphism' entry", 0)
    words = algebra.shifted.words_up_to(min(args.word_cap, 3))
    rep = linf_identity_check(morphism.taylor, algebra, morphism.target, words)
    inter = morphism.check_intertwines(min(args.word_cap, 3))
    doc = {"verb": "linf-check", "identity_paths_agree": rep.ok,
           "is_linf_morphism": inter.ok}
    if not rep.ok:
        doc["witness"] = rep.violations[0]["witness"]
    if not inter.ok:
        doc["witness"] = inter.violations[0]["witness"]
    return (OK if rep.ok and inter.ok else CHECK_FAILED), doc


def cmd_extend(args):
    from .linf import extend_multilinear
    from .scalars import CoeffDGA
    algebra, omega, morphism = _load_instance(args)
    if morphism is None:
        raise ParseError("instance needs a 'morphism' entry", 0)
    with open(args.coeff_algebra) as fh:
        A = CoeffDGA.from_json(fh.read())
    ext = extend_multilinear(morphism, A, W=args.word_cap)
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
    "schouten": (cmd_schouten, "Schouten bracket of two poly vector fields"),
    "wedge": (cmd_wedge, "wedge product of two poly vector fields"),
    "gerstenhaber": (cmd_gerstenhaber, "Gerstenhaber bracket of two operators"),
    "hochschild": (cmd_hochschild, "shifted Hochschild differential"),
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
    t0 = time.time()
    try:
        code, doc = handler(args)
    except (ParseError, FileNotFoundError, json.JSONDecodeError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return USAGE_ERROR
    except ValueError as ex:
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
