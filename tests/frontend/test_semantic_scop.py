"""Semantic analysis and SCoP extraction."""

import pytest

from repro.errors import SemanticError
from repro.frontend.cparser import parse_c
from repro.frontend.scop import extract_scop
from repro.frontend.semantic import analyze_function

GEMM = """
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
"""


def analyze(src, name=None):
    unit = parse_c(src)
    fn = unit.function(name) if name else unit.functions[0]
    return analyze_function(fn)


def test_symbol_tables():
    info = analyze(GEMM)
    assert [n for n, t in info.scalars.items() if t == "int"] == ["M", "N", "K"]
    assert [n for n, t in info.scalars.items() if t == "double"] == ["alpha"]
    assert set(info.arrays) == {"A", "B", "C"}
    assert info.arrays["A"].rank == 2


def test_statement_collected_with_loops():
    info = analyze(GEMM)
    (stmt,) = info.statements
    assert stmt.loop_vars == ("i", "j", "k")
    assert [l.depth for l in stmt.loops] == [0, 1, 2]


def test_affine_subscripts_extracted():
    info = analyze(GEMM)
    (stmt,) = info.statements
    assert [str(s) for s in stmt.target_subscripts] == ["i", "j"]


def test_affine_bound_with_arithmetic():
    src = """
    void f(int M, double A[M][M]) {
      for (int i = 0; i < M - 1; i++)
        A[i][i + 1] = 0;
    }
    """
    info = analyze(src)
    (stmt,) = info.statements
    assert stmt.loops[0].upper.evaluate({"M": 10}) == 9
    assert stmt.target_subscripts[1].evaluate({"i": 3}) == 4


def test_division_and_modulo_in_subscripts():
    src = """
    void f(int M, double A[M][M]) {
      for (int i = 0; i < M; i++)
        A[i / 4][i % 4] = 0;
    }
    """
    info = analyze(src)
    (stmt,) = info.statements
    assert stmt.target_subscripts[0].evaluate({"i": 9}) == 2
    assert stmt.target_subscripts[1].evaluate({"i": 9}) == 1


def test_nonaffine_subscript_rejected():
    src = """
    void f(int M, double A[M][M]) {
      for (int i = 0; i < M; i++)
        for (int j = 0; j < M; j++)
          A[i * j][0] = 0;
    }
    """
    with pytest.raises(SemanticError, match="non-affine"):
        analyze(src)


def test_unknown_identifier_rejected():
    src = "void f(int M, double A[M][M]) { A[0][0] = unknown_thing; }"
    with pytest.raises(SemanticError):
        analyze(src)


def test_unknown_function_rejected():
    src = "void f(int M, double A[M][M]) { A[0][0] = frobnicate(A[0][0]); }"
    with pytest.raises(SemanticError, match="frobnicate"):
        analyze(src)


def test_rank_mismatch_rejected():
    src = "void f(int M, double A[M][M]) { A[0] = 1; }"
    with pytest.raises(SemanticError, match="rank"):
        analyze(src)


def test_loop_variable_shadowing_rejected():
    src = """
    void f(int M, double A[M][M]) {
      for (int i = 0; i < M; i++)
        for (int i = 0; i < M; i++)
          A[i][i] = 0;
    }
    """
    with pytest.raises(SemanticError, match="shadow"):
        analyze(src)


def test_scalar_assignment_target_rejected():
    src = "void f(int M, double x, double A[M][M]) { x = 1; }"
    with pytest.raises(SemanticError):
        analyze(src)


# -- SCoP extraction -------------------------------------------------------------


def test_scop_domain_and_accesses():
    scop = extract_scop(analyze(GEMM))
    (stmt,) = scop.statements
    assert stmt.domain.count({"M": 2, "N": 3, "K": 4}) == 24
    arrays = sorted({a.array for a in stmt.accesses})
    assert arrays == ["A", "B", "C"]
    writes = [a for a in stmt.accesses if a.is_write]
    assert len(writes) == 1 and writes[0].array == "C"


def test_scop_dependence_summary_matches_paper():
    scop = extract_scop(analyze(GEMM))
    summary = scop.statements[0].summary()
    assert summary.coincident == (True, True, False)
    assert summary.permutable
    assert summary.reduction_dims == ("k",)


def test_scop_multiple_statements_ordered():
    src = """
    void f(int M, int N, int K, double A[M][K], double B[K][N], double C[M][N]) {
      for (int i = 0; i < M; i++)
        for (int k = 0; k < K; k++)
          A[i][k] = quant(A[i][k]);
      for (int i = 0; i < M; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < K; k++)
            C[i][j] += A[i][k] * B[k][j];
    }
    """
    scop = extract_scop(analyze(src))
    assert [s.name for s in scop.statements] == ["S0", "S1"]
    assert scop.statements[0].domain.space.rank == 2


def test_compound_assignment_reads_target():
    src = """
    void f(int M, double A[M][M], double B[M][M]) {
      for (int i = 0; i < M; i++)
        A[i][i] += B[i][i];
    }
    """
    scop = extract_scop(analyze(src))
    accesses = scop.statements[0].accesses
    a_reads = [a for a in accesses if a.array == "A" and not a.is_write]
    assert len(a_reads) == 1
