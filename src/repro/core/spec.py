"""Problem specification.

A :class:`GemmSpec` is what the frontend extracts from the user's C code
(or what API users construct directly): the DGEMM operation

    C = α·(A × B) + β·C

with A of size M×K, B of size K×N, C of size M×N (§2), an optional batch
dimension, and an optional fused element-wise prologue (over A) or
epilogue (over C).  Shapes are kept *symbolic* (parameter names) in the
compiler — matching the paper's parametric generated code — and bound to
concrete values at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.poly.affine import aff_var
from repro.poly.imap import AffineMap
from repro.poly.iset import IntegerSet, box_set
from repro.poly.space import Space


def check_shape(M: int, N: int, K: int, batch: int = 1) -> None:
    """Refuse a concrete problem shape with a dimension or batch below 1:
    the one check every path that binds a shape (execution, simulation,
    tuning) runs before the shape reaches NumPy or the chunk arithmetic."""
    for name, value in (("M", M), ("N", N), ("K", K), ("batch", batch)):
        if value < 1:
            raise ConfigurationError(
                f"{name} must be a positive integer, got {value}"
            )


@dataclass(frozen=True)
class GemmSpec:
    """One (possibly batched, possibly fused) DGEMM problem."""

    m_param: str = "M"
    n_param: str = "N"
    k_param: str = "K"
    batch_param: Optional[str] = None  # e.g. "B" for batched GEMM
    a_name: str = "A"
    b_name: str = "B"
    c_name: str = "C"
    #: Statement name used in schedule trees, following the paper (S1).
    stmt_name: str = "S1"
    has_alpha: bool = True
    has_beta: bool = True
    #: Fused element-wise prologue applied to A (statement S0, Fig. 12a).
    prologue_func: Optional[str] = None
    #: Fused element-wise epilogue applied to C (statement S2, Fig. 12b).
    epilogue_func: Optional[str] = None
    #: Element type: "float64" (DGEMM, the paper's focus) or "float32"
    #: (SGEMM — §2: "other GEMM variants share the same structure").
    dtype: str = "float64"
    #: Transposed operands: ``C = α·op(A)·op(B) + β·C`` with
    #: ``op(A) = A^T`` when ``trans_a`` (A stored K×M, accessed A[k][i])
    #: and ``op(B) = B^T`` when ``trans_b`` (B stored N×K, accessed
    #: B[j][k]) — §2: "other GEMM variants share the same structure".
    trans_a: bool = False
    trans_b: bool = False

    def __post_init__(self) -> None:
        names = {self.a_name, self.b_name, self.c_name}
        if len(names) != 3:
            raise ConfigurationError("A, B and C must have distinct names")
        params = {self.m_param, self.n_param, self.k_param}
        if len(params) != 3:
            raise ConfigurationError("M, N and K parameter names must differ")
        if self.batch_param in params:
            raise ConfigurationError("batch parameter must not collide with M/N/K")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"unsupported dtype {self.dtype!r}; use float64 or float32"
            )
        if self.prologue_func and self.epilogue_func:
            raise ConfigurationError(
                "the paper's approach fuses a single prologue OR epilogue "
                "(extending to both needs a smaller assembly kernel shape, §7.3)"
            )

    # -- polyhedral views --------------------------------------------------

    @property
    def is_batched(self) -> bool:
        return self.batch_param is not None

    def loop_dims(self) -> Tuple[str, ...]:
        dims = ("i", "j", "k")
        return (("b",) + dims) if self.is_batched else dims

    def statement_space(self) -> Space:
        return Space(self.stmt_name, self.loop_dims())

    def domain(self) -> IntegerSet:
        """``{ S1(b?, i, j, k) : 0 <= i < M ∧ 0 <= j < N ∧ 0 <= k < K }``."""
        bounds: Dict[str, Tuple[object, object]] = {
            "i": (0, aff_var(self.m_param)),
            "j": (0, aff_var(self.n_param)),
            "k": (0, aff_var(self.k_param)),
        }
        if self.is_batched:
            bounds["b"] = (0, aff_var(self.batch_param))
        return box_set(self.statement_space(), bounds)

    def a_dims(self) -> Tuple[str, str]:
        """Storage dims (row param, col param) of the A operand."""
        return (
            (self.k_param, self.m_param) if self.trans_a
            else (self.m_param, self.k_param)
        )

    def b_dims(self) -> Tuple[str, str]:
        return (
            (self.n_param, self.k_param) if self.trans_b
            else (self.k_param, self.n_param)
        )

    def c_dims(self) -> Tuple[str, str]:
        return (self.m_param, self.n_param)

    def accesses(self):
        """Read/write access relations of the GEMM statement."""
        from repro.poly.dependences import Access

        space = self.statement_space()
        i, j, k = aff_var("i"), aff_var("j"), aff_var("k")
        prefix = [aff_var("b")] if self.is_batched else []

        def arr_space(name: str, rank: int) -> Space:
            dims = tuple(f"d{x}" for x in range(rank))
            return Space(name, dims)

        rank = 3 if self.is_batched else 2
        a_subs = [k, i] if self.trans_a else [i, k]
        b_subs = [j, k] if self.trans_b else [k, j]
        c_map = AffineMap.access(space, arr_space(self.c_name, rank), prefix + [i, j])
        a_map = AffineMap.access(space, arr_space(self.a_name, rank), prefix + a_subs)
        b_map = AffineMap.access(space, arr_space(self.b_name, rank), prefix + b_subs)
        return [
            Access(self.c_name, c_map, True),
            Access(self.c_name, c_map, False),
            Access(self.a_name, a_map, False),
            Access(self.b_name, b_map, False),
        ]

    # -- runtime helpers -----------------------------------------------------

    def param_names(self) -> Tuple[str, ...]:
        base = (self.m_param, self.n_param, self.k_param)
        return ((self.batch_param,) + base) if self.is_batched else base

    def bind_params(
        self, M: int, N: int, K: int, batch: Optional[int] = None
    ) -> Dict[str, int]:
        """Concrete parameter environment for execution."""
        check_shape(M, N, K, 1 if batch is None else batch)
        env = {self.m_param: M, self.n_param: N, self.k_param: K}
        if self.is_batched:
            if batch is None:
                raise ConfigurationError("batched spec requires a batch size")
            env[self.batch_param] = batch
        elif batch is not None:
            raise ConfigurationError("non-batched spec got a batch size")
        return env

    @property
    def itemsize(self) -> int:
        return 8 if self.dtype == "float64" else 4

    def flops(self, M: int, N: int, K: int, batch: int = 1) -> float:
        """Floating-point operations of the useful GEMM work."""
        return 2.0 * M * N * K * batch
