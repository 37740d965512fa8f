"""Hot-loop kernels over raw term maps.

A raw term map is a plain dict from an opaque hashable key (a word
tuple, or a pair of word tuples for tensors) to a normalized rational
pair ``(num, den)``: arbitrary-precision ints, ``den >= 1``,
``gcd(num, den) == 1``, and no stored pair has ``num == 0``.  Pairs are
the form at every API edge: every value that enters or leaves a
polynomial, a tensor or an evaluation is one.

The term maps given to ``substitute`` and ``coproduct`` are evaluated
in this form, through ``mul_word_into`` and ``mul_tensor_into``.  Only
the quotient graphs of the suite families are evaluated in another
form: dense blocks ``(blocks, den)``, one list of integer numerators
over one common denominator per weight of word (per pair of weights for
a tensor, row-major), a slot per composition, ranked as in
``words.compositions_of``, zeros included.  A composition of n is a
subset of {1, ..., n - 1} (Gelfand et al. 1995; Gessel 1984), read as
the bits of its rank, so rank(u v) = rank(u) * 2^|v| + rank(v).  A
product is then slice arithmetic with no gcd: ``mul_word_blocks_into``
and ``mul_tensor_blocks_into`` add the other factor's block, for each
nonzero of one factor, in runs of ``out[s:e:step] = map(add, ...)``.
``to_word_blocks``, ``to_tensor_blocks``, ``from_word_blocks`` and
``from_tensor_blocks`` convert, through the integer map ``(ints, den)``
of ``to_int_map`` and ``from_int_map``, and ``tensor_block_key``
decodes one slot.  Reversing every word permutes the ranks of a weight
(``reverse_word_blocks``).

This is the package's one kernel module (``nsymm._backend.kernels``);
tests/test_rational_kernels.py holds it to a ``fractions.Fraction``
model.  The ``*_into`` kernels add their result to an accumulator in
place and leave their operands untouched.  The term-map products' outer
loop runs over the shorter factor, and the inner loop over the longer
one; each key is still the left factor's key followed by the right
factor's.  A block product loops over the nonzeros of the
block whose loop costs less.
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

from itertools import compress, count, product, repeat
from math import gcd
from operator import add, mul, ne, sub

from .words import compositions_of


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


# --- dense blocks --------------------------------------------------------------


def block_length(weight):
    """The number of compositions of a weight: 2^(weight - 1), and 1 for weight 0."""
    return 1 << (weight - 1) if weight else 1


def nonzero_entries(block):
    """(index, value) of each nonzero entry of a block, in order."""
    return zip(compress(count(), block), filter(None, block))


def to_word_blocks(terms):
    """A word-keyed term map as dense blocks ``(blocks, den)``.

    ``blocks`` maps each weight to one list of integer numerators over the
    lcm ``den`` of the denominators, one per composition of that weight, in
    the order of ``compositions_of``.
    """
    ints, den = to_int_map(terms)
    weights = sorted({sum(word) for word in ints})
    return {w: list(map(ints.get, compositions_of(w), repeat(0))) for w in weights}, den


def to_tensor_blocks(terms):
    """A pair-keyed term map as dense blocks ``(blocks, den)``.

    ``blocks`` maps each (left weight, right weight) to one row-major list
    of integer numerators over ``den``: a row per left word and a column per
    right word, each in the order of ``compositions_of``.
    """
    ints, den = to_int_map(terms)
    shapes = sorted({(sum(left), sum(right)) for left, right in ints})
    return {
        (i, j): list(map(ints.get, product(compositions_of(i), compositions_of(j)), repeat(0)))
        for i, j in shapes
    }, den


def tensor_block_key(shape, k):
    """The pair of words at entry k of the tensor block of weights ``shape``."""
    i, j = shape
    rights = compositions_of(j)
    row, col = divmod(k, len(rights))
    return compositions_of(i)[row], rights[col]


def from_word_blocks(blocks, den):
    """The term map blocks / den, reduced with one gcd per nonzero entry."""
    ints = {}
    for weight, block in blocks.items():
        words = compositions_of(weight)
        ints.update((words[k], value) for k, value in nonzero_entries(block))
    return from_int_map(ints, den)


def from_tensor_blocks(blocks, den):
    """The term map blocks / den on pair keys, reduced with one gcd per nonzero entry."""
    ints = {}
    for shape, block in blocks.items():
        ints.update((tensor_block_key(shape, k), value) for k, value in nonzero_entries(block))
    return from_int_map(ints, den)


def block_mismatches(have, have_scale, want, want_scale):
    """The indices k, in order, at which have[k] * have_scale != want[k] * want_scale."""
    return compress(
        count(), map(ne, map(mul, have, repeat(have_scale)), map(mul, want, repeat(want_scale)))
    )


def reverse_word_blocks(blocks):
    """Fresh dense word blocks with every word reversed.

    Reversing a composition of n reverses its n - 1 cut bits, so the
    word of rank r goes to the rank of r with its n - 1 bits reversed.
    The permutation is an involution, so slot r of a reversed block reads
    that rank of the block.
    """
    out = {}
    for weight, block in blocks.items():
        ranks = [0]
        for _ in range(weight - 1):
            ranks = [r << 1 for r in ranks] + [r << 1 | 1 for r in ranks]
        out[weight] = list(map(block.__getitem__, ranks))
    return out


def blocks_integral(blocks, den):
    """Whether blocks / den has integer coefficients: den divides every entry."""
    return not any(value % den for block in blocks.values() for value in block)


def scale_blocks(blocks, n):
    """Fresh dense blocks n * blocks."""
    return {key: list(map(mul, block, repeat(n))) for key, block in blocks.items()}


def drop_zero_blocks(blocks):
    """Delete, in place, each block whose entries are all zero."""
    for key in [key for key, block in blocks.items() if not any(block)]:
        del blocks[key]


# A run (one slice multiply-add) costs about as much as this many of its entries.
_RUN_COST = 16


def _add_run(out, start, step, src, v):
    # out[start + t * step] += v * src[t] for every t, in one slice assignment
    stop = start + (len(src) - 1) * step + 1
    segment = out[start:stop:step]
    if v == 1:
        out[start:stop:step] = map(add, segment, src)
    elif v == -1:
        out[start:stop:step] = map(sub, segment, src)
    else:
        out[start:stop:step] = map(add, segment, map(mul, src, repeat(v)))


def _runs(rows, cols, row_stride, col_stride):
    # the number of runs in which _add_grid adds such a grid
    if rows == 1 or cols == 1 or row_stride == cols * col_stride:
        return 1
    return min(rows, cols)


def _add_grid(out, base, src, cols, row_stride, col_stride, v):
    """out[base + r * row_stride + c * col_stride] += v * src[r * cols + c], in runs.

    A grid whose rows follow one another at its column stride, and a grid
    of one row or one column, is one run; any other is added row by row
    or column by column, whichever is fewer.
    """
    rows = len(src) // cols
    if rows == 1 or row_stride == cols * col_stride:
        _add_run(out, base, col_stride, src, v)
    elif cols == 1:
        _add_run(out, base, row_stride, src, v)
    elif rows <= cols:
        for r in range(rows):
            _add_run(out, base + r * row_stride, col_stride, src[r * cols : (r + 1) * cols], v)
    else:
        for c in range(cols):
            _add_run(out, base + c * col_stride, row_stride, src[c::cols], v)


def _mul_block_into(out, x, x_cols, y, y_cols, k, l, out_cols, m):
    """out += m * x * y for the blocks x of weights (i, j) and y of weights (k, l).

    out is the block of (i + k, j + l), with out_cols columns.  By the rank
    identity rank(u v) = rank(u) * 2^|v| + rank(v), entry (p, q) of x and
    entry (r, s) of y land on ((p << k) + r) * out_cols + (q << l) + s.
    The loop runs over the nonzeros of one factor, and adds the other
    factor's block as a grid for each; it takes the factor whose loop
    costs less, counting a run as _RUN_COST entries.
    """
    x_rows, y_rows = len(x) // x_cols, len(y) // y_cols
    row_stride, col_stride = out_cols << k, 1 << l
    over_x = (len(x) - x.count(0)) * (len(y) + _RUN_COST * _runs(y_rows, y_cols, out_cols, 1))
    over_y = (len(y) - y.count(0)) * (
        len(x) + _RUN_COST * _runs(x_rows, x_cols, row_stride, col_stride)
    )
    if over_x <= over_y:
        for e, v in nonzero_entries(x):
            p, q = divmod(e, x_cols)
            _add_grid(out, (p << k) * out_cols + (q << l), y, y_cols, out_cols, 1, v * m)
    else:
        for e, v in nonzero_entries(y):
            r, s = divmod(e, y_cols)
            _add_grid(out, r * out_cols + s, x, x_cols, row_stride, col_stride, v * m)


def mul_word_blocks_into(acc, a, b, m):
    """acc += m * a * b under concatenation, on dense word blocks, in place.

    acc, a and b map a weight to its block (:func:`to_word_blocks`) and m
    is a nonzero int, so no gcd is taken; acc gets a zero block for each
    weight it lacks.  A word block is a grid of one column, so each pair of
    blocks is multiplied as a pair of tensor blocks with empty right words.
    """
    for i, x in a.items():
        for k, y in b.items():
            out = acc.get(i + k)
            if out is None:
                out = acc[i + k] = [0] * block_length(i + k)
            _mul_block_into(out, x, 1, y, 1, k, 0, 1, m)


def mul_tensor_blocks_into(acc, a, b, m):
    """acc += m * a * b componentwise, on dense tensor blocks, in place.

    As :func:`mul_word_blocks_into`, on blocks keyed by (left weight,
    right weight) (:func:`to_tensor_blocks`).
    """
    for (i, j), x in a.items():
        x_cols = block_length(j)
        for (k, l), y in b.items():
            out_cols = block_length(j + l)
            out = acc.get((i + k, j + l))
            if out is None:
                out = acc[i + k, j + l] = [0] * (block_length(i + k) * out_cols)
            _mul_block_into(out, x, x_cols, y, block_length(l), k, l, out_cols, m)


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
