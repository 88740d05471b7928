"""Command-line front end.

Every verb maps to one library operation, and takes only the options it
reads: ``VERBS`` names them, ``OPTIONS`` declares each one once, and every
verb also takes --format.  Output is canonical JSON on stdout
(byte-identical for identical inputs and seed); a timing summary goes to
stderr.  Exit codes: 0 success / checks passed, 1 a mathematical check
failed (witness in the output), 2 usage or parse errors (among them an
option the verb does not take, an --n, --samples or --max-arity below 1, an
unreadable input file, a coefficient that is not a "num/den" string, an
instance that lacks an entry the verb needs, or whose morphism does not
intertwine, outside linf-check), or a --coeff-algebra that fails dga_check,
or a verb given the wrong number of operands (verbs other than the element
verbs take none).  An operand that begins with '-' goes after '--'.  Each
check walks to the word order its identity needs, read off the Taylor
lengths; no option caps it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time

from . import hkr, jsonio, selftest as selftest_mod
from .coalg import CoalgElem, exp as coalg_exp, ln as coalg_ln
from .diffop import gerstenhaber, hochschild_d
from .grammar import parse_element
from .linf import (conjugation_twist, extend_multilinear, linf_identity_check, mc_push,
                   mc_residue, operators_agree, twist_coder, twist_morphism,
                   MCElement)
from .polyvec import is_poisson, schouten, wedge
from .scalars import ParseError, dga_check

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0


def _read_document(args):
    """The JSON document named by --instance; '-' reads stdin."""
    if args.instance is None:
        raise ParseError(f"{args.verb} needs --instance (a JSON file path, or - for stdin)")
    with _loading():
        return jsonio.read_document(args.instance)


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
        algebra, omega, morphism = jsonio.instance_from_json(doc)
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
    return True, doc


def cmd_u1(args):
    n = args.n
    alpha = parse_element(args.exprs[0], "polyvec", n)
    op = hkr.u1(alpha)
    return True, {"verb": "u1", "n": n, "result": op.text(),
                  "normalized": op.is_normalized(), "order": op.order()}


def cmd_apply(args):
    n = args.n
    op = parse_element(args.exprs[0], "polydiffop", n)
    polys = [parse_element(t, "poly", n) for t in args.exprs[1:]]
    return True, {"verb": "apply", "n": n, "result": op.apply(polys).text()}


def cmd_poisson_check(args):
    n = args.n
    pi = parse_element(args.exprs[0], "polyvec", n)
    ok = is_poisson(pi)
    return ok, {
        "verb": "poisson-check", "n": n, "poisson": ok,
        "self_bracket": schouten(pi, pi).text()}


def cmd_exp(args):
    algebra, omega, _ = _load_instance(args, need_omega=True)
    e = coalg_exp(CoalgElem.from_vect(algebra.shifted, omega))
    return True, {"verb": "exp", "result": jsonio.element_to_json(e)}


def cmd_ln(args):
    doc = _read_document(args)
    algebra, _, _ = _load_instance(args, doc)
    with _loading():
        elem = jsonio.element_from_json(algebra.shifted, doc["element"])
    return True, {"verb": "ln", "result": jsonio.element_to_json(coalg_ln(elem))}


def _mc_gate(verb, algebra, omega):
    """The failing verdict when omega is not Maurer-Cartan, else None."""
    res = mc_residue(algebra, omega)
    if not res:
        return None
    return False, {"verb": verb, "mc": False,
                   "residue": jsonio.vect_to_json(algebra.module, res)}


def _record(doc, key, rep):
    """rep's verdict under key, and its first witness if it failed; rep.ok."""
    doc[key] = rep.ok
    if not rep.ok:
        doc["witness"] = rep.violations[0]["witness"]
    return rep.ok


def cmd_mc_check(args):
    algebra, omega, _ = _load_instance(args, need_omega=True)
    return (_mc_gate("mc-check", algebra, omega)
            or (True, {"verb": "mc-check", "mc": True, "residue": {}}))


def cmd_mc_push(args):
    algebra, omega, morphism = _load_instance(args, need_omega=True, need_morphism=True)
    gate = _mc_gate("mc-push", algebra, omega)
    if gate:
        return gate
    om = MCElement(algebra, omega, check=False)  # the gate has checked it
    pushed = mc_push(morphism, om)
    naturality = morphism.psi(om.exp()) == pushed.exp()  # mc_push asserts MC-ness
    return naturality, {
        "verb": "mc-push",
        "omega_prime": jsonio.vect_to_json(morphism.target.module, pushed.vect),
        "exp_naturality": naturality}


def cmd_twist(args):
    """twist and twist-check: the MC gate (unless --allow-non-mc), then
    Q_omega∘Q_omega = 0.  twist adds the twisted Taylor table; twist-check goes
    on, while each check passes, to the conjugation oracle and then to the
    twisted morphism, if the instance has one.  The two twists are compared
    column for column up to max(2, top): both are coderivations, fixed by
    their Taylor coefficients, of which the longest has order top."""
    algebra, omega, morphism = _load_instance(args, need_omega=True)
    gate = not args.allow_non_mc and _mc_gate(args.verb, algebra, omega)
    if gate:
        return gate
    tw = twist_coder(algebra, omega, allow_non_mc=True)
    doc = {"verb": args.verb}
    ok = _record(doc, "square_zero", tw.check_square_zero())
    if args.verb == "twist":
        doc["twisted_taylor"] = jsonio.taylor_to_json(tw.taylor)
        return ok, doc
    if ok:
        conj = conjugation_twist(algebra, omega)
        ok = _record(doc, "conjugation_agrees",
                     operators_agree(tw.Q, conj, algebra.shifted,
                                     max(2, algebra.taylor.max_j())))
    if ok and morphism is not None:
        om = MCElement(algebra, omega, check=args.allow_non_mc)  # else the gate did
        tm = twist_morphism(morphism, om, twisted_source=tw)
        ok = _record(doc, "morphism_intertwines", tm.check_intertwines())
    return ok, doc


def cmd_linf_check(args):
    """Both identity paths on every word up to check_order() + 1, one order
    past the bound where both residuals must vanish, then check_intertwines."""
    algebra, _, morphism = _load_instance(args, need_morphism=True)
    words = algebra.shifted.words_up_to(morphism.check_order() + 1)
    rep = linf_identity_check(morphism.taylor, algebra, morphism.target, words)
    doc = {"verb": "linf-check"}
    paths = _record(doc, "identity_paths_agree", rep)
    inter = _record(doc, "is_linf_morphism", morphism.check_intertwines())  # its witness wins
    return paths and inter, doc


def cmd_extend(args):
    _, _, morphism = _load_instance(args, need_morphism=True)
    if args.coeff_algebra is None:
        raise ParseError("extend needs --coeff-algebra")
    with _loading():
        A = jsonio.coeff_algebra_from_json(jsonio.read_document(args.coeff_algebra))
    axioms = dga_check(A)
    if not axioms.ok:
        v = axioms.violations[0]
        raise ParseError(f"coefficient algebra axioms fail: {v['axiom']} at {v['witness']}")
    # the base DGLAs passed dgla_check at load and A passes dga_check, so both
    # tensor DGLAs satisfy the axioms by construction
    ext = extend_multilinear(morphism, A, check=False)
    doc = {"verb": "extend", "extended_dim": len(ext.source.module)}
    return _record(doc, "morphism_axiom", ext.check_intertwines()), doc


def cmd_hkr_report(args):
    spec = hkr.TruncationSpec(args.n, args.trunc, args.order,
                              args.window[0], args.window[1])
    rep = hkr.hkr_report(spec)
    return rep["ok"], rep


def cmd_kontsevich_check(args):
    rep = hkr.kontsevich_conditions(hkr.trivial_plugin(), n=args.n,
                                    samples=args.samples, seed=args.seed,
                                    max_arity=args.max_arity)
    return rep["ok"], rep


def cmd_selftest(args):
    rep = selftest_mod.run(seed=args.seed)
    return rep["ok"], rep


def positive(text):
    """An int option of at least 1 (argparse names the option when this raises)."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# Every option, declared once: its keyword arguments to add_argument, under
# the dest name that handlers read as args.<name>; the flag is --name with '-'
# for '_'.
OPTIONS = {
    "n": dict(type=positive, default=2, help="number of variables (>= 1)"),
    "instance": dict(default=None, help="instance JSON path or -"),
    "coeff_algebra": dict(default=None, help="coefficient DG algebra JSON path or -"),
    "trunc": dict(type=int, default=2, help="polynomial degree cap for slices"),
    "order": dict(type=int, default=2, help="operator order cap"),
    "window": dict(type=int, nargs=2, default=[-1, 1], help="cohomological degree window"),
    "seed": dict(type=int, default=selftest_mod.DEFAULT_SEED, help="random seed"),
    "samples": dict(type=positive, default=20, help="random inputs per condition (>= 1)"),
    "max_arity": dict(type=positive, default=2,
                      help="largest arity of the identity checked (>= 1)"),
    "allow_non_mc": dict(action="store_true", help="twist an omega that is not Maurer-Cartan"),
}

_ELEMENT = ("n",)
_INSTANCE = ("instance",)
_TWIST = _INSTANCE + ("allow_non_mc",)

# verb: (handler, help, (least, most) operands with most None for no bound,
# the OPTIONS the verb reads); every verb also takes --format.
VERBS = {
    "schouten": (functools.partial(_element_verb, op=schouten, kind="polyvec"),
                 "Schouten bracket of two poly vector fields", (2, 2), _ELEMENT),
    "wedge": (functools.partial(_element_verb, op=wedge, kind="polyvec"),
              "wedge product of two poly vector fields", (2, 2), _ELEMENT),
    "gerstenhaber": (functools.partial(_element_verb, op=gerstenhaber, kind="polydiffop"),
                     "Gerstenhaber bracket of two operators", (2, 2), _ELEMENT),
    "hochschild": (functools.partial(_element_verb, op=hochschild_d, kind="polydiffop"),
                   "shifted Hochschild differential", (1, 1), _ELEMENT),
    "apply": (cmd_apply, "apply an operator to polynomials", (1, None), _ELEMENT),
    "u1": (cmd_u1, "antisymmetrization map into operators", (1, 1), _ELEMENT),
    "poisson-check": (cmd_poisson_check, "is the bivector Poisson", (1, 1), _ELEMENT),
    "exp": (cmd_exp, "group-like exponential of a nilpotent element", (0, 0), _INSTANCE),
    "ln": (cmd_ln, "order-1 projection of a coalgebra element", (0, 0), _INSTANCE),
    "mc-check": (cmd_mc_check, "Maurer-Cartan residue of omega", (0, 0), _INSTANCE),
    "mc-push": (cmd_mc_push, "pushforward of omega along the morphism", (0, 0), _INSTANCE),
    "twist": (cmd_twist, "twist the structure by omega", (0, 0), _TWIST),
    "twist-check": (cmd_twist, "verify the twist theorem on the instance", (0, 0), _TWIST),
    "linf-check": (cmd_linf_check, "morphism identity, both evaluation paths", (0, 0),
                   _INSTANCE),
    "extend": (cmd_extend, "coefficient-algebra multilinear extension", (0, 0),
               _INSTANCE + ("coeff_algebra",)),
    "hkr-report": (cmd_hkr_report, "rank comparison on filtered slices", (0, 0),
                   ("n", "trunc", "order", "window")),
    "kontsevich-check": (cmd_kontsevich_check, "predicates for the builtin plugin", (0, 0),
                         ("n", "samples", "seed", "max_arity")),
    "selftest": (cmd_selftest, "run the deterministic invariant suite", (0, 0), ("seed",)),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="linfty", description=__doc__)
    sub = ap.add_subparsers(dest="verb")
    for verb, (_, help_text, _, options) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("exprs", nargs="*", help="inline element expressions")
        for name in options:
            p.add_argument("--" + name.replace("_", "-"), **OPTIONS[name])
        p.add_argument("--format", choices=["json", "pretty"], default="json")
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
    handler, _, (least, most), _ = VERBS[args.verb]
    t0 = time.time()
    try:
        if len(args.exprs) < least or (most is not None and len(args.exprs) > most):
            raise ParseError(f"{args.verb} takes {'at least' if most is None else 'exactly'} "
                             f"{least} operand(s), got {len(args.exprs)}")
        ok, doc = handler(args)
    except (OSError, ValueError) as ex:  # ParseError and JSONDecodeError too
        sys.stderr.write(f"error: {ex}\n")
        return USAGE_ERROR
    _emit(doc, args)
    sys.stderr.write(f"linfty {args.verb}: {time.time() - t0:.3f}s\n")
    return OK if ok else CHECK_FAILED


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
