"""Span recorder that wraps nsymm's public functions from outside.

``install()`` runs in a benchmark child process after ``nsymm`` is
imported.  It replaces each listed function or method with a wrapper
that records a span (name, start, end, parent) in memory.  A function
is replaced under every name that holds it: the defining module, every
consumer module that rebound it with ``from ... import``, and the kernel
module behind ``nsymm._backend.kernels``.  Nothing under ``src/`` is
edited.

At exit ``Recorder.dump`` writes the spans and the counters to one
binary file; ``layers.py`` computes self time from them in the harness.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name, extra): the spanned public functions.
# "kernels" is whichever module nsymm._backend.kernels points to.
# extra: "out" counts terms_out, "bits" also tracks coefficient bit length,
# "outer" spans only outermost calls of a recursive function, "nnz" records
# the nonzeros of the family it checks.
FUNCTION_SPANS = (
    ("kernels", "mul_word_terms", "kernels.mul_word_terms", "bits"),
    ("kernels", "mul_tensor_terms", "kernels.mul_tensor_terms", "bits"),
    ("kernels", "add_scaled_into", "kernels.add_scaled_into", None),
    ("kernels", "add_terms", "kernels.add_sub_scale", None),
    ("kernels", "sub_terms", "kernels.add_sub_scale", None),
    ("kernels", "neg_terms", "kernels.add_sub_scale", None),
    ("kernels", "scale_terms", "kernels.add_sub_scale", None),
    ("kernels", "quasi_shuffle_words", "kernels.quasi_shuffle_words", "outer"),
    ("nsymm.hopf", "coproduct", "hopf.coproduct", "out"),
    ("nsymm.hopf", "primitivity_defect", "hopf.primitivity_defect", None),
    ("nsymm.newton", "newton_p_left", "newton.primitives", None),
    ("nsymm.newton", "newton_p_right", "newton.primitives", None),
    ("nsymm.newton", "newton_p_explicit", "newton.primitives", None),
    ("nsymm.newton", "z_in_pprime", "newton.expansions", None),
    ("nsymm.newton", "z_in_pprime_via_c", "newton.expansions", None),
    ("nsymm.newton", "c_coeff", "newton.expansions", None),
    ("nsymm.explog", "z_of_u", "explog.generators", None),
    ("nsymm.explog", "u_of_z", "explog.generators", None),
    ("nsymm.explog", "expand_z_in_u", "explog.expand", None),
    ("nsymm.explog", "expand_u_in_z", "explog.expand", None),
    ("nsymm.qsymm", "quasi_shuffle", "qsymm.quasi_shuffle", None),
    ("nsymm.qsymm", "d_qsymm", "qsymm.d_qsymm", None),
    ("nsymm.qsymm", "deconcat", "qsymm.deconcat", "out"),
    ("nsymm.hsops", "hs_defect", "hsops.hs_defect", "nnz"),
    ("nsymm.hsops", "derivation_defect", "hsops.derivation_defect", None),
    ("nsymm.hsops", "free_hs_extend", "hsops.free_hs_extend", None),
    ("nsymm.hsops", "delta_from_d", "hsops.delta_from_d", None),
    ("nsymm.hsops", "d_from_delta", "hsops.d_from_delta", None),
    ("nsymm.hsops", "partial_from_d", "hsops.partial_from_d", None),
    ("nsymm.hsops", "d_from_partial", "hsops.d_from_partial", None),
    ("nsymm.hsops", "operator_from_word_poly", "hsops.operator_from_word_poly", None),
    ("nsymm.serialize", "family_from_data", "serialize.load", None),
    ("nsymm.serialize", "derivations_from_data", "serialize.load", None),
    ("nsymm.serialize", "poly_from_data", "serialize.load", None),
    ("nsymm.serialize", "tensor_from_data", "serialize.load", None),
    ("nsymm.serialize", "family_to_data", "serialize.dump", None),
    ("nsymm.serialize", "derivations_to_data", "serialize.dump", None),
    ("nsymm.serialize", "poly_to_data", "serialize.dump", None),
    ("nsymm.serialize", "tensor_to_data", "serialize.dump", None),
    ("nsymm.serialize", "render_poly", "serialize.dump", None),
    ("nsymm.serialize", "render_tensor", "serialize.dump", None),
    ("nsymm.cli", "main", "cli.main", None),
)

# (module, class, method, span name, extra): spanned methods.
METHOD_SPANS = (
    ("nsymm.poly", "NCPoly", "__mul__", "poly.NCPoly.mul", None),
    ("nsymm.poly", "NCPoly", "substitute", "poly.NCPoly.substitute", None),
    ("nsymm.poly", "Tensor2", "__mul__", "poly.Tensor2.mul", None),
    ("nsymm.poly", "Tensor2", "outer", "poly.Tensor2.outer", None),
    ("nsymm.hsops", "TestAlgebra", "__post_init__", "hsops.TestAlgebra.init", None),
    ("nsymm.hsops", "TestAlgebra", "mul", "hsops.TestAlgebra.mul", None),
    ("nsymm.hsops", "LinMap", "__matmul__", "hsops.LinMap.matmul", None),
    ("nsymm.hsops", "LinMap", "__add__", "hsops.LinMap.linear", None),
    ("nsymm.hsops", "LinMap", "__sub__", "hsops.LinMap.linear", None),
    ("nsymm.hsops", "LinMap", "scale", "hsops.LinMap.linear", None),
)

# Scalar kernels: counted, not spanned.
COUNTED = ("rat_norm", "rat_add", "rat_mul")

# (counter prefix, module, attribute) of the memo caches read at exit.
CACHES = (
    ("words.compositions_of", "nsymm.words", "compositions_of"),
    ("hopf.word_coproduct", "nsymm.hopf", "_word_coproduct"),
    ("newton.p_left", "nsymm.newton", "_p_left"),
    ("newton.p_right", "nsymm.newton", "_p_right"),
    ("newton.z_in_pprime", "nsymm.newton", "_z_in_pprime"),
)

MAGIC = b"perfbench-spans-1\n"


def _coeff_bits(terms) -> int:
    best = 0
    for num, den in terms.values():
        bits = max(abs(num).bit_length(), den.bit_length())
        if bits > best:
            best = bits
    return best


def _family_nnz(maps) -> int:
    return sum(1 for m in maps for col in m.columns for s in col if s)


class Recorder:
    """Spans in parallel arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, fn, name: str, extra=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def spanned(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        if extra is None:
            return spanned
        if extra == "outer":
            active = [False]

            def outermost(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
                try:
                    return spanned(*args, **kwargs)
                finally:
                    active[0] = False

            return outermost
        if extra == "nnz":

            def with_nnz(algebra, maps, *args, **kwargs):
                self._peak("hsops.family_nnz", _family_nnz(maps))
                return spanned(algebra, maps, *args, **kwargs)

            return with_nnz
        out_key = f"{name}.terms_out"

        def with_terms(*args, **kwargs):
            result = spanned(*args, **kwargs)
            self._bump(out_key, len(result))
            if extra == "bits" and result:
                self._peak("kernels.max_coeff_bits", _coeff_bits(result))
            return result

        return with_terms

    def count(self, fn, key: str):
        counters = self.counters

        def counted(*args):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args)

        return counted

    def read_caches(self) -> None:
        for prefix, module, attr in CACHES:
            info = getattr(sys.modules[module], attr).cache_info()
            self._bump(f"{prefix}.hits", info.hits)
            self._bump(f"{prefix}.misses", info.misses)
            self._peak(f"{prefix}.entries", info.currsize)

    def dump(self, path: str) -> None:
        """Write names, counters and the span arrays to ``path``."""
        header = json.dumps({"names": self.names, "counters": self.counters, "spans": len(self.name_id)})
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(header.encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)


def load(path: str):
    """Read a dump back: (names, counters, name_id, parent, start, end)."""
    with open(path, "rb") as handle:
        if handle.readline() != MAGIC:
            raise ValueError(f"{path}: not a span dump")
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    return (header["names"], header["counters"], *columns)


def _rebind(original, replacement) -> int:
    """Replace ``original`` under every name that holds it in nsymm's modules."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nsymm" or name.startswith("nsymm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install() -> Recorder:
    """Wrap every listed function and method; return the recorder."""
    import nsymm._backend

    recorder = Recorder()
    modules = {"kernels": nsymm._backend.kernels}
    for module, attr, name, extra in FUNCTION_SPANS:
        target = modules.get(module) or sys.modules[module]
        original = getattr(target, attr)
        if not _rebind(original, recorder.wrap(original, name, extra)):
            raise RuntimeError(f"could not rebind {module}.{attr}")
    kernels = modules["kernels"]
    for attr in COUNTED:
        original = getattr(kernels, attr)
        _rebind(original, recorder.count(original, "kernels.rat_scalar.calls"))
    for module, cls_name, method, name, extra in METHOD_SPANS:
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(recorder.wrap(raw.__func__, name, extra)))
        else:
            setattr(cls, method, recorder.wrap(raw, name, extra))
    return recorder
