"""Hot-loop kernels over raw term maps.

A raw term map is a plain dict from an opaque hashable key (a word
tuple, or a pair of word tuples for tensors) to a normalized rational
pair ``(num, den)``: arbitrary-precision ints, ``den >= 1``,
``gcd(num, den) == 1``, and no stored pair has ``num == 0``.

This is the package's one kernel module (``nsymm._backend.kernels``);
tests/test_rational_kernels.py holds it to a ``fractions.Fraction``
model.  The ``*_into`` kernels add their result to an accumulator in
place and leave their operands untouched; the two products add c times
the product.  Their outer loop runs over the shorter factor, with c
folded into the coefficient of each of its terms, and the inner loop
over the longer one; each key is still the left factor's key followed
by the right factor's.  ``add_scaled_into`` is the one loop that merges a term
map into another: the sum, difference, negation and scaling kernels
are each one call of it on a fresh dict, but scaling by one copies the
map.  Only the two products and the quasi-shuffle keep merge loops of their
own, inlined for speed.  Outside this module, the law walk of
nsymm.hsops, which also checks associativity, and its map product
inline the same multiply-add over one-term structure constants, where
a call per term cost more than its arithmetic.  Everything here is
exact integer arithmetic — no floats.
"""

from math import gcd


def rat_norm(num, den):
    """Reduce num/den to canonical form (den >= 1, lowest terms)."""
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if num == 0:
        return (0, 1)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return (num, den)


def rat_add(a, b):
    an, ad = a
    bn, bd = b
    n = an * bd + bn * ad
    if n == 0:
        return (0, 1)
    d = ad * bd
    g = gcd(n, d)
    return (n // g, d // g)


def rat_mul(a, b):
    an, ad = a
    bn, bd = b
    if an == 0 or bn == 0:
        return (0, 1)
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return ((an // g1) * (bn // g2), (ad // g2) * (bd // g1))


_ONE = (1, 1)
_MINUS_ONE = (-1, 1)


def _merged(a, b, c):
    """a + c * b as a new term map; a and b stay untouched."""
    out = dict(a)
    add_scaled_into(out, b, c)
    return out


def add_terms(a, b):
    return _merged(a, b, _ONE)


def sub_terms(a, b):
    return _merged(a, b, _MINUS_ONE)


def neg_terms(a):
    return _merged({}, a, _MINUS_ONE)


def scale_terms(a, c):
    # a normalized map times one is a copy of it
    return dict(a) if c == _ONE else _merged({}, a, c)


def add_scaled_into(acc, terms, c):
    """acc += c * terms, in place; acc stays canonical."""
    cn, cd = c
    if cn == 0 or not terms:
        return
    sign = cn if cd == 1 and (cn == 1 or cn == -1) else 0
    for k, v in terms.items():
        vn, vd = v
        # exact fast path: a coefficient of +-1 copies the pair, sign flipped as needed
        if sign:
            wn, wd = sign * vn, vd
        else:
            g1 = gcd(vn, cd)
            g2 = gcd(cn, vd)
            wn = (vn // g1) * (cn // g2)
            wd = (vd // g2) * (cd // g1)
        p = acc.get(k)
        if p is None:
            acc[k] = (wn, wd)
        else:
            n = p[0] * wd + wn * p[1]
            if n == 0:
                del acc[k]
            else:
                d = p[1] * wd
                g = gcd(n, d)
                acc[k] = (n // g, d // g)


def mul_word_terms(a, b):
    """Bilinear concatenation product of word-keyed term maps."""
    out = {}
    mul_word_into(out, a, b)
    return out


def mul_tensor_terms(a, b):
    """Componentwise concatenation product of pair-keyed term maps."""
    out = {}
    mul_tensor_into(out, a, b)
    return out


def mul_word_into(acc, a, b, c=_ONE):
    """acc += c * a * b under concatenation, in place; acc stays canonical.

    c is folded into the coefficient of each term of the shorter factor,
    which the outer loop runs over; the key stays the left one's plus the
    right one's.
    """
    cn, cd = c
    if cn == 0:
        return
    scaled = cn != 1 or cd != 1
    if len(a) > len(b):
        for kb, (on, od) in b.items():
            if scaled:
                if od == 1 and cd == 1:
                    on *= cn
                else:
                    g1, g2 = gcd(on, cd), gcd(cn, od)
                    on, od = (on // g1) * (cn // g2), (od // g2) * (cd // g1)
            unit = on == 1 and od == 1
            for ka, v in a.items():
                # exact fast paths: a unit factor copies the pair; integers need no gcd
                if unit:
                    wn, wd = v
                elif od == 1 and v[1] == 1:
                    wn, wd = on * v[0], 1
                else:
                    g1 = gcd(on, v[1])
                    g2 = gcd(v[0], od)
                    wn = (on // g1) * (v[0] // g2)
                    wd = (od // g2) * (v[1] // g1)
                k = ka + kb
                p = acc.get(k)
                if p is None:
                    acc[k] = (wn, wd)
                elif wd == 1 and p[1] == 1:
                    n = p[0] + wn
                    if n:
                        acc[k] = (n, 1)
                    else:
                        del acc[k]
                else:
                    n = p[0] * wd + wn * p[1]
                    if n == 0:
                        del acc[k]
                    else:
                        d = p[1] * wd
                        g = gcd(n, d)
                        acc[k] = (n // g, d // g)
        return
    for ka, (on, od) in a.items():
        if scaled:
            if od == 1 and cd == 1:
                on *= cn
            else:
                g1, g2 = gcd(on, cd), gcd(cn, od)
                on, od = (on // g1) * (cn // g2), (od // g2) * (cd // g1)
        unit = on == 1 and od == 1
        for kb, v in b.items():
            # exact fast paths: a unit factor copies the pair; integers need no gcd
            if unit:
                wn, wd = v
            elif od == 1 and v[1] == 1:
                wn, wd = on * v[0], 1
            else:
                g1 = gcd(on, v[1])
                g2 = gcd(v[0], od)
                wn = (on // g1) * (v[0] // g2)
                wd = (od // g2) * (v[1] // g1)
            k = ka + kb
            p = acc.get(k)
            if p is None:
                acc[k] = (wn, wd)
            elif wd == 1 and p[1] == 1:
                n = p[0] + wn
                if n:
                    acc[k] = (n, 1)
                else:
                    del acc[k]
            else:
                n = p[0] * wd + wn * p[1]
                if n == 0:
                    del acc[k]
                else:
                    d = p[1] * wd
                    g = gcd(n, d)
                    acc[k] = (n // g, d // g)


def mul_tensor_into(acc, a, b, c=_ONE):
    """acc += c * a * b componentwise on pair keys, in place; acc stays canonical.

    c is folded into the coefficient of each term of the shorter factor,
    which the outer loop runs over; the key stays the left one's plus the
    right one's.
    """
    cn, cd = c
    if cn == 0:
        return
    scaled = cn != 1 or cd != 1
    if len(a) > len(b):
        for (lb, rb), (on, od) in b.items():
            if scaled:
                if od == 1 and cd == 1:
                    on *= cn
                else:
                    g1, g2 = gcd(on, cd), gcd(cn, od)
                    on, od = (on // g1) * (cn // g2), (od // g2) * (cd // g1)
            unit = on == 1 and od == 1
            for (la, ra), v in a.items():
                # exact fast paths: a unit factor copies the pair; integers need no gcd
                if unit:
                    wn, wd = v
                elif od == 1 and v[1] == 1:
                    wn, wd = on * v[0], 1
                else:
                    g1 = gcd(on, v[1])
                    g2 = gcd(v[0], od)
                    wn = (on // g1) * (v[0] // g2)
                    wd = (od // g2) * (v[1] // g1)
                k = (la + lb, ra + rb)
                p = acc.get(k)
                if p is None:
                    acc[k] = (wn, wd)
                elif wd == 1 and p[1] == 1:
                    n = p[0] + wn
                    if n:
                        acc[k] = (n, 1)
                    else:
                        del acc[k]
                else:
                    n = p[0] * wd + wn * p[1]
                    if n == 0:
                        del acc[k]
                    else:
                        d = p[1] * wd
                        g = gcd(n, d)
                        acc[k] = (n // g, d // g)
        return
    for (la, ra), (on, od) in a.items():
        if scaled:
            if od == 1 and cd == 1:
                on *= cn
            else:
                g1, g2 = gcd(on, cd), gcd(cn, od)
                on, od = (on // g1) * (cn // g2), (od // g2) * (cd // g1)
        unit = on == 1 and od == 1
        for (lb, rb), v in b.items():
            # exact fast paths: a unit factor copies the pair; integers need no gcd
            if unit:
                wn, wd = v
            elif od == 1 and v[1] == 1:
                wn, wd = on * v[0], 1
            else:
                g1 = gcd(on, v[1])
                g2 = gcd(v[0], od)
                wn = (on // g1) * (v[0] // g2)
                wd = (od // g2) * (v[1] // g1)
            k = (la + lb, ra + rb)
            p = acc.get(k)
            if p is None:
                acc[k] = (wn, wd)
            elif wd == 1 and p[1] == 1:
                n = p[0] + wn
                if n:
                    acc[k] = (n, 1)
                else:
                    del acc[k]
            else:
                n = p[0] * wd + wn * p[1]
                if n == 0:
                    del acc[k]
                else:
                    d = p[1] * wd
                    g = gcd(n, d)
                    acc[k] = (n // g, d // g)


def quasi_shuffle_words(u, v):
    """Overlapping shuffle of two compositions; integer coefficients.

    By the first-letter recursion u*v = u0(u'*v) + v0(u*v') + (u0+v0)(u'*v'),
    built bottom-up over the suffix pairs (u[i:], v[j:]), so each suffix
    product is formed once.  ``below[j]`` is the product of u[i+1:] and
    v[j:], and ``row[j]`` that of u[i:] and v[j:].
    """
    below = [{v[j:]: (1, 1)} for j in range(len(v) + 1)]
    for i in range(len(u) - 1, -1, -1):
        row = [None] * len(v) + [{u[i:]: (1, 1)}]
        for j in range(len(v) - 1, -1, -1):
            out = {}
            for head, sub in (
                (u[i : i + 1], below[j]),
                (v[j : j + 1], row[j + 1]),
                ((u[i] + v[j],), below[j + 1]),
            ):
                for k, c in sub.items():
                    kk = head + k
                    p = out.get(kk)
                    out[kk] = (p[0] + c[0], 1) if p is not None else c
            row[j] = out
        below = row
    return below[0]
