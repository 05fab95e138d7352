"""Pattern recognition: SCoP → GemmSpec.

The compiler accepts exactly the input class the paper evaluates:

* **GEMM** — a 3-deep canonical nest whose statement is
  ``C[i][j] += (alpha·) A[i][k] * B[k][j]`` (or the ``C[i][j] = C[i][j] + …``
  spelling), Fig. 2a;
* **batched GEMM** — the same with a leading batch loop and rank-3
  arrays, Fig. 3;
* **fusion with a prologue** — an element-wise statement
  ``A[i][k] = f(A[i][k])`` textually before the GEMM (Fig. 12a);
* **fusion with an epilogue** — ``C[i][j] = f(C[i][j])`` after it
  (Fig. 12b).

Everything is verified structurally (loop roles are inferred from the
subscripts, not from loop order) and cross-checked against the array
extents (``A[M][K]``, ``B[K][N]``, ``C[M][N]``).  The recogniser then
emits the :class:`~repro.core.spec.GemmSpec` and the matching
:class:`~repro.core.options.CompilerOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PatternError
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.frontend.cast import CArrayRef, CBinary, CCall, CExpr, CIdent
from repro.frontend.cparser import parse_c
from repro.frontend.scop import Scop, ScopStatement, extract_scop
from repro.frontend.semantic import FunctionInfo, analyze_function
from repro.poly.affine import AffExpr


@dataclass
class GemmMatch:
    """The recognised GEMM statement with its role bindings."""

    statement: ScopStatement
    a_name: str
    b_name: str
    c_name: str
    i_var: str
    j_var: str
    k_var: str
    batch_var: Optional[str]
    m_param: str
    n_param: str
    k_param: str
    batch_param: Optional[str]
    alpha_scalars: Tuple[str, ...]
    trans_a: bool = False
    trans_b: bool = False


def _flatten_product(expr: CExpr) -> List[CExpr]:
    if isinstance(expr, CBinary) and expr.op == "*":
        return _flatten_product(expr.lhs) + _flatten_product(expr.rhs)
    return [expr]


def _subscript_vars(ref: CArrayRef) -> Optional[Tuple[str, ...]]:
    names: List[str] = []
    for index in ref.indices:
        if isinstance(index, CIdent):
            names.append(index.name)
        else:
            return None
    return tuple(names)


def _same_ref(a: CArrayRef, b: CArrayRef) -> bool:
    return a.array == b.array and _subscript_vars(a) == _subscript_vars(b)


def _single_param_bound(lower: AffExpr, upper: AffExpr) -> Optional[str]:
    """``0 <= var < P`` with P a bare parameter."""
    if not (lower.is_constant() and lower.constant_value() == 0):
        return None
    if upper.is_single_var():
        return upper.single_var()
    return None


class PatternRecognizer:
    def __init__(self, scop: Scop, info: FunctionInfo) -> None:
        self.scop = scop
        self.info = info

    # -- GEMM recognition -------------------------------------------------

    def find_gemm(self) -> Tuple[int, GemmMatch]:
        """Locate the (unique) GEMM statement; returns its index + match."""
        matches: List[Tuple[int, GemmMatch]] = []
        for index, stmt in enumerate(self.scop.statements):
            match = self._match_gemm(stmt)
            if match is not None:
                matches.append((index, match))
        if not matches:
            raise PatternError(
                "no GEMM statement found: expected "
                "C[i][j] += (alpha*) A[i][k] * B[k][j] inside a canonical nest"
            )
        if len(matches) > 1:
            raise PatternError("multiple GEMM statements found; supply one")
        return matches[0]

    def _match_gemm(self, stmt: ScopStatement) -> Optional[GemmMatch]:
        assign = stmt.info.assign
        target = assign.target
        if not isinstance(target, CArrayRef):
            return None
        target_vars = _subscript_vars(target)
        if target_vars is None:
            return None
        depth = len(stmt.info.loops)
        if depth not in (3, 4):
            return None
        batched = depth == 4
        if len(target_vars) != (3 if batched else 2):
            return None

        # Normalise to "accumulate(product)".
        if assign.op == "+=":
            product = assign.value
        elif assign.op == "=":
            value = assign.value
            if not (isinstance(value, CBinary) and value.op == "+"):
                return None
            if isinstance(value.lhs, CArrayRef) and _same_ref(value.lhs, target):
                product = value.rhs
            elif isinstance(value.rhs, CArrayRef) and _same_ref(value.rhs, target):
                product = value.lhs
            else:
                return None
        else:
            return None

        factors = _flatten_product(product)
        arrays = [f for f in factors if isinstance(f, CArrayRef)]
        scalars = [f for f in factors if isinstance(f, CIdent)]
        others = [
            f for f in factors if not isinstance(f, (CArrayRef, CIdent))
        ]
        if len(arrays) != 2 or others:
            return None
        sub0, sub1 = _subscript_vars(arrays[0]), _subscript_vars(arrays[1])
        if sub0 is None or sub1 is None:
            return None

        if batched:
            b_var = target_vars[0]
            if sub0[0] != b_var or sub1[0] != b_var:
                return None
            i_var, j_var = target_vars[1], target_vars[2]
            core0, core1 = sub0[1:], sub1[1:]
        else:
            b_var = None
            i_var, j_var = target_vars
            core0, core1 = sub0, sub1

        loop_vars = set(stmt.info.loop_vars)
        k_candidates = loop_vars - {i_var, j_var} - ({b_var} if b_var else set())
        if len(k_candidates) != 1:
            return None
        k_var = next(iter(k_candidates))

        # Assign A/B roles by index pattern; transposed operands access
        # A[k][i] / B[j][k] (§2: the other GEMM variants).
        def role(core: Tuple[str, ...]) -> Optional[str]:
            if core == (i_var, k_var):
                return "A"
            if core == (k_var, i_var):
                return "At"
            if core == (k_var, j_var):
                return "B"
            if core == (j_var, k_var):
                return "Bt"
            return None

        roles = {role(core0): arrays[0], role(core1): arrays[1]}
        if None in roles:
            return None
        a_key = "A" if "A" in roles else ("At" if "At" in roles else None)
        b_key = "B" if "B" in roles else ("Bt" if "Bt" in roles else None)
        if a_key is None or b_key is None or len(roles) != 2:
            return None
        trans_a = a_key == "At"
        trans_b = b_key == "Bt"
        a_ref, b_ref = roles[a_key], roles[b_key]

        # Parameter names from the loop bounds.
        bounds: Dict[str, Optional[str]] = {}
        for loop in stmt.info.loops:
            bounds[loop.var] = _single_param_bound(loop.lower, loop.upper)
        if any(bounds[v] is None for v in (i_var, j_var, k_var)):
            raise PatternError(
                "GEMM loop bounds must be single integer parameters (0 <= x < P)"
            )
        if b_var is not None and bounds[b_var] is None:
            raise PatternError("batch loop bound must be a single parameter")

        match = GemmMatch(
            statement=stmt,
            a_name=a_ref.array,
            b_name=b_ref.array,
            c_name=target.array,
            i_var=i_var,
            j_var=j_var,
            k_var=k_var,
            batch_var=b_var,
            m_param=bounds[i_var],
            n_param=bounds[j_var],
            k_param=bounds[k_var],
            batch_param=bounds[b_var] if b_var else None,
            alpha_scalars=tuple(s.name for s in scalars),
            trans_a=trans_a,
            trans_b=trans_b,
        )
        self._check_array_extents(match)
        return match

    def _check_array_extents(self, match: GemmMatch) -> None:
        a_dims = (
            (match.k_param, match.m_param) if match.trans_a
            else (match.m_param, match.k_param)
        )
        b_dims = (
            (match.n_param, match.k_param) if match.trans_b
            else (match.k_param, match.n_param)
        )
        expect = {
            match.a_name: a_dims,
            match.b_name: b_dims,
            match.c_name: (match.m_param, match.n_param),
        }
        for name, (rows, cols) in expect.items():
            array = self.info.arrays.get(name)
            if array is None:
                raise PatternError(f"array {name!r} is not a parameter")
            dims = array.dims
            if match.batch_param is not None:
                if array.rank != 3 or not dims[0].is_single_var() or dims[0].single_var() != match.batch_param:
                    raise PatternError(
                        f"batched array {name!r} must be declared "
                        f"[{match.batch_param}][…][…]"
                    )
                dims = dims[1:]
            if array.rank - (1 if match.batch_param else 0) != 2:
                raise PatternError(f"array {name!r} must be rank-2 (plus batch)")
            for dim, param in zip(dims, (rows, cols)):
                if not (dim.is_single_var() and dim.single_var() == param):
                    raise PatternError(
                        f"array {name!r} is declared with extent {dim}, but the "
                        f"loop structure implies {param}"
                    )

    # -- fusion recognition ------------------------------------------------------

    def _match_elementwise(
        self, stmt: ScopStatement
    ) -> Optional[Tuple[str, str, Tuple[str, ...]]]:
        """``X[v...] = f(X[v...])`` — returns (array, func, vars)."""
        assign = stmt.info.assign
        if assign.op != "=":
            return None
        target = assign.target
        if not isinstance(target, CArrayRef):
            return None
        value = assign.value
        if not (isinstance(value, CCall) and len(value.args) == 1):
            return None
        arg = value.args[0]
        if not (isinstance(arg, CArrayRef) and _same_ref(arg, target)):
            return None
        names = _subscript_vars(target)
        if names is None:
            return None
        return target.array, value.func, names

    def recognize(self) -> Tuple[GemmSpec, CompilerOptions]:
        gemm_index, match = self.find_gemm()
        prologue: Optional[str] = None
        epilogue: Optional[str] = None
        for index, stmt in enumerate(self.scop.statements):
            if index == gemm_index:
                continue
            elementwise = self._match_elementwise(stmt)
            if elementwise is None:
                raise PatternError(
                    f"statement {stmt.name} is neither the GEMM nor a "
                    "supported element-wise prologue/epilogue"
                )
            array, func, _ = elementwise
            if index < gemm_index:
                if array != match.a_name:
                    raise PatternError(
                        "the fused prologue must transform the GEMM's A input"
                    )
                if prologue is not None:
                    raise PatternError("multiple prologue statements")
                prologue = func
            else:
                if array != match.c_name:
                    raise PatternError(
                        "the fused epilogue must transform the GEMM's C output"
                    )
                if epilogue is not None:
                    raise PatternError("multiple epilogue statements")
                epilogue = func
        if prologue and epilogue:
            raise PatternError(
                "fusing both a prologue and an epilogue needs a smaller "
                "assembly kernel shape (§7.3) and is not supported"
            )

        spec = GemmSpec(
            m_param=match.m_param,
            n_param=match.n_param,
            k_param=match.k_param,
            batch_param=match.batch_param,
            a_name=match.a_name,
            b_name=match.b_name,
            c_name=match.c_name,
            has_alpha=bool(match.alpha_scalars) or True,
            prologue_func=prologue,
            epilogue_func=epilogue,
            trans_a=match.trans_a,
            trans_b=match.trans_b,
        )
        fusion = "prologue" if prologue else ("epilogue" if epilogue else "none")
        option_kwargs: Dict[str, object] = {
            "batch": match.batch_param is not None,
            "fusion": fusion,
        }
        if prologue:
            option_kwargs["prologue_func"] = prologue
        if epilogue:
            option_kwargs["epilogue_func"] = epilogue
        return spec, CompilerOptions(**option_kwargs)


def extract_spec(
    source: str,
    function: Optional[str] = None,
    return_options: bool = False,
):
    """C source → :class:`GemmSpec` (and options when requested)."""
    unit = parse_c(source)
    cfunc = unit.function(function) if function else unit.functions[0]
    info = analyze_function(cfunc)
    scop = extract_scop(info)
    spec, options = PatternRecognizer(scop, info).recognize()
    if return_options:
        return spec, options
    return spec
