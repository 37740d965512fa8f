"""Hot-loop kernels over raw term maps.

A raw term map is a plain dict from an opaque hashable key (a word
tuple, or a pair of word tuples for tensors) to a normalized rational
pair ``(num, den)``: arbitrary-precision ints, ``den >= 1``,
``gcd(num, den) == 1``, and no stored pair has ``num == 0``.  Pairs are
the form at every API edge: every value that enters or leaves a
polynomial, a tensor or an evaluation is one.

Inside pass 2 of the evaluator (``poly._evaluate``), the word and tensor
morphisms keep each image as an integer map instead: ``(ints, den)``, a
dict from key to nonzero int and one common denominator, the term map
ints / den, not reduced.  ``to_int_map`` converts a term map once,
``from_int_map`` reduces an integer map back in place, one gcd per term,
and ``mul_word_ints_into`` and ``mul_tensor_ints_into`` add an integer
multiple of a product with no gcd at all.

This is the package's one kernel module (``nsymm._backend.kernels``);
tests/test_rational_kernels.py holds it to a ``fractions.Fraction``
model.  The ``*_into`` kernels add their result to an accumulator in
place and leave their operands untouched.  The products' outer loop
runs over the shorter factor, and the inner loop over the longer one;
an integer product folds its multiplier into each term of the shorter
factor, and each key is still the left factor's key followed by the
right factor's.
``add_scaled_into`` is the one loop that merges a term map into another:
the sum, difference, negation and scaling kernels are each one call of
it on a fresh dict, but scaling by one copies the map.  Only the
products and the quasi-shuffle keep merge loops of their own, inlined
for speed.  Outside this module, the law walk of nsymm.hsops, which also
checks associativity, and its map product inline the same multiply-add
over one-term structure constants, where a call per term cost more than
its arithmetic.  Everything here is exact integer arithmetic — no
floats.
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


def mul_word_into(acc, a, b):
    """acc += a * b under concatenation, in place; acc stays canonical.

    The outer loop runs over the shorter factor; the key stays the left
    one's plus the right one's.
    """
    if len(a) > len(b):
        for kb, (on, od) in b.items():
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


def mul_tensor_into(acc, a, b):
    """acc += a * b componentwise on pair keys, in place; acc stays canonical.

    The outer loop runs over the shorter factor; the key stays the left
    one's plus the right one's.
    """
    if len(a) > len(b):
        for (lb, rb), (on, od) in b.items():
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


def to_int_map(terms):
    """A term map as ``(ints, den)``: integer numerators over the lcm of its denominators."""
    den = 1
    for _, d in terms.values():
        if den % d:
            den = den // gcd(den, d) * d
    return {k: n * (den // d) for k, (n, d) in terms.items()}, den


def from_int_map(ints, den):
    """The term map ints / den, reduced in place with one gcd per term; returns ints.

    The reduced denominators are shared: each distinct one is one int object.
    """
    if den == 1:
        for k, v in ints.items():
            ints[k] = (v, 1)
        return ints
    reduced = {}
    for k, v in ints.items():
        g = gcd(v, den)
        d = reduced.get(g)
        if d is None:
            d = reduced[g] = den // g
        ints[k] = (v // g, d)
    return ints


def mul_word_ints_into(acc, a, b, m):
    """acc += m * a * b under concatenation, on integer maps, in place.

    acc, a and b map keys to nonzero ints and m is a nonzero int, so no
    gcd is taken; a sum that cancels is deleted.  m is folded into each
    term of the shorter factor, which the outer loop runs over; the key
    stays the left one's plus the right one's.
    """
    if len(a) > len(b):
        for kb, vb in b.items():
            vb *= m
            for ka, va in a.items():
                k = ka + kb
                n = acc.get(k, 0) + va * vb
                if n:
                    acc[k] = n
                else:
                    del acc[k]
        return
    for ka, va in a.items():
        va *= m
        for kb, vb in b.items():
            k = ka + kb
            n = acc.get(k, 0) + va * vb
            if n:
                acc[k] = n
            else:
                del acc[k]


def mul_tensor_ints_into(acc, a, b, m):
    """acc += m * a * b componentwise on pair keys, on integer maps, in place.

    As :func:`mul_word_ints_into`, with the key (la + lb, ra + rb).
    """
    if len(a) > len(b):
        for (lb, rb), vb in b.items():
            vb *= m
            for (la, ra), va in a.items():
                k = (la + lb, ra + rb)
                n = acc.get(k, 0) + va * vb
                if n:
                    acc[k] = n
                else:
                    del acc[k]
        return
    for (la, ra), va in a.items():
        va *= m
        for (lb, rb), vb in b.items():
            k = (la + lb, ra + rb)
            n = acc.get(k, 0) + va * vb
            if n:
                acc[k] = n
            else:
                del acc[k]


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
