"""Reference walks for Q∘Q = 0 and Psi∘Q = Q'∘Psi over every canonical word.

They rebuild the operators from the Taylor tables with ``linfty.coalg`` and
share no code with ``linfty.linf``, whose checks stop at an order derived from
the Taylor lengths.  Each walk returns the witness words in walk order, so the
derived check's witnesses must be a prefix of the reference's.
"""

from linfty.coalg import CoalgElem, coder_from_taylor, morph_from_taylor


def square_zero_witnesses(taylor, W, max_order=None):
    """Every canonical word up to max_order (default W) with Q(Q(word)) != 0."""
    module = taylor.source
    Q = coder_from_taylor(taylor, W)
    bad = []
    for w in module.words_up_to(W if max_order is None else max_order):
        x = CoalgElem(module, {w: module.coeff.one()}, W)
        if not Q(Q(x)).is_zero():
            bad.append([module.gen_name(i) for i in w])
    return bad


def intertwine_witnesses(psi_taylor, source_taylor, target_taylor, W, max_order=None):
    """Every canonical word up to max_order (default W) with Psi(Q(word)) != Q'(Psi(word))."""
    module = psi_taylor.source
    psi = morph_from_taylor(psi_taylor, W)
    Q, Q_t = coder_from_taylor(source_taylor, W), coder_from_taylor(target_taylor, W)
    bad = []
    for w in module.words_up_to(W if max_order is None else max_order):
        x = CoalgElem(module, {w: module.coeff.one()}, W)
        if psi(Q(x)) != Q_t(psi(x)):
            bad.append([module.gen_name(i) for i in w])
    return bad
