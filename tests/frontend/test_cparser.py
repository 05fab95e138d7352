"""Recursive-descent parser for the C subset."""

import pytest

from repro.errors import ParseError
from repro.frontend.cast import (
    CArrayRef,
    CAssign,
    CBinary,
    CCall,
    CFor,
    CIdent,
    CIntLit,
)
from repro.frontend.cparser import parse_c

GEMM = """
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
"""


def test_parse_gemm_function_signature():
    unit = parse_c(GEMM)
    fn = unit.function("gemm")
    assert fn.return_type == "void"
    assert [p.name for p in fn.params if not p.is_array] == ["M", "N", "K", "alpha"]
    arrays = [p for p in fn.params if p.is_array]
    assert [p.name for p in arrays] == ["A", "B", "C"]
    assert arrays[0].rank == 2


def test_parse_gemm_loop_nest():
    fn = parse_c(GEMM).function("gemm")
    loop_i = fn.body[0]
    assert isinstance(loop_i, CFor) and loop_i.var == "i"
    loop_j = loop_i.body[0]
    loop_k = loop_j.body[0]
    assert loop_k.var == "k"
    stmt = loop_k.body[0]
    assert isinstance(stmt, CAssign)
    assert stmt.op == "="
    assert isinstance(stmt.target, CArrayRef)
    assert stmt.target.array == "C"


def test_plus_equals_form():
    src = GEMM.replace("C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];",
                       "C[i][j] += A[i][k] * B[k][j];")
    fn = parse_c(src).function("gemm")
    stmt = fn.body[0].body[0].body[0].body[0]
    assert stmt.op == "+="


def test_precedence():
    src = "void f(int M, double A[M][M]) { A[0][0] = 1 + 2 * 3; }"
    stmt = parse_c(src).functions[0].body[0]
    value = stmt.value
    assert isinstance(value, CBinary) and value.op == "+"
    assert isinstance(value.rhs, CBinary) and value.rhs.op == "*"


def test_parenthesised_expression():
    src = "void f(int M, double A[M][M]) { A[0][0] = (1 + 2) * 3; }"
    value = parse_c(src).functions[0].body[0].value
    assert value.op == "*"
    assert value.lhs.op == "+"


def test_call_expression():
    src = "void f(int M, double A[M][M]) { A[0][0] = quant(A[0][0]); }"
    value = parse_c(src).functions[0].body[0].value
    assert isinstance(value, CCall)
    assert value.func == "quant"
    assert isinstance(value.args[0], CArrayRef)


def test_loop_increment_variants():
    for increment in ("i++", "++i", "i += 1", "i = i + 1"):
        src = f"void f(int M, double A[M][M]) {{ for (int i = 0; i < M; {increment}) A[i][0] = 0; }}"
        fn = parse_c(src).functions[0]
        assert isinstance(fn.body[0], CFor)


def test_le_condition_normalised():
    src = "void f(int M, double A[M][M]) { for (int i = 0; i <= M; i++) A[i][0] = 0; }"
    loop = parse_c(src).functions[0].body[0]
    # i <= M becomes upper bound M + 1 (exclusive).
    assert isinstance(loop.upper, CBinary) and loop.upper.op == "+"


def test_non_unit_stride_rejected():
    src = "void f(int M, double A[M][M]) { for (int i = 0; i < M; i += 2) A[i][0] = 0; }"
    with pytest.raises(ParseError, match="unit-stride"):
        parse_c(src)


def test_wrong_condition_variable_rejected():
    src = "void f(int M, double A[M][M]) { for (int i = 0; M < i; i++) A[i][0] = 0; }"
    with pytest.raises(ParseError):
        parse_c(src)


def test_unterminated_block_rejected():
    with pytest.raises(ParseError):
        parse_c("void f(int M) { ")


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse_c("")


def test_unsupported_assignment_operator():
    src = "void f(int M, double A[M][M]) { A[0][0] /= 2; }"
    with pytest.raises(ParseError):
        parse_c(src)


def test_multiple_functions():
    src = """
    void a(int M, double X[M][M]) { X[0][0] = 1; }
    void b(int N, double Y[N][N]) { Y[0][0] = 2; }
    """
    unit = parse_c(src)
    assert [f.name for f in unit.functions] == ["a", "b"]
    assert unit.function("b").params[0].name == "N"


def test_batched_vla_params():
    src = """
    void g(int BS, int M, double A[BS][M][M]) {
      for (int b = 0; b < BS; b++)
        A[b][0][0] = 0;
    }
    """
    fn = parse_c(src).functions[0]
    assert [p.rank for p in fn.params if p.is_array] == [3]
