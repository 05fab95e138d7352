"""athread C pretty-printer (§7).

Renders a compiled program as the two source files the paper's compiler
emits: the CPE (slave) file with the SPM buffers, DMA/RMA calls and the
inline assembly kernel invocation, and the MPE (host) file containing
``main``.  On the real system these compile with::

    swgcc -mslave -msimd -O3 <cpe file>
    swgcc -mhost  -msimd -O3 -faddress_align=128 <mpe file>
    swgcc -mhybrid <objects>

The printer consumes exactly the AST the simulator executes, so what is
printed is what was validated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CodegenError
from repro.poly.affine import AffExpr
from repro.poly.astnodes import (
    AddrOf,
    AffRef,
    ArrayRef,
    BinExpr,
    Block,
    BlockOpStmt,
    CommentStmt,
    CommStmt,
    DoubleLit,
    Expr,
    ForLoop,
    IfStmt,
    IntLit,
    KernelCall,
    NaiveComputeStmt,
    Stmt,
    VarRef,
)
from repro.codegen.elementwise import get_elementwise

INDENT = "  "


# ---------------------------------------------------------------------------
# Affine expressions → C
# ---------------------------------------------------------------------------


def _try_mod_form(expr: AffExpr) -> Optional[str]:
    """Render ``e - d*floor(e/d)`` as ``(e) % d``."""
    if len(expr.divs) != 1:
        return None
    div, coeff = next(iter(expr.divs.items()))
    d = div.divisor
    if coeff != -d:
        return None
    base = expr + AffExpr(divs={div: d})
    if base == div.arg:
        return f"({aff_to_c(base)}) % {d}"
    return None


def aff_to_c(expr: AffExpr) -> str:
    mod_form = _try_mod_form(expr)
    if mod_form is not None:
        return mod_form
    parts: List[str] = []
    for var in sorted(expr.coeffs):
        coeff = expr.coeffs[var]
        if coeff == 1:
            parts.append(var)
        elif coeff == -1:
            parts.append(f"-{var}")
        else:
            parts.append(f"{coeff} * {var}")
    for div, coeff in sorted(expr.divs.items(), key=lambda kv: str(kv[0])):
        rendered = f"(({aff_to_c(div.arg)}) / {div.divisor})"
        if coeff == 1:
            parts.append(rendered)
        elif coeff == -1:
            parts.append(f"-{rendered}")
        else:
            parts.append(f"{coeff} * {rendered}")
    if expr.const != 0 or not parts:
        parts.append(str(expr.const))
    out = " + ".join(parts).replace("+ -", "- ")
    return out


# ---------------------------------------------------------------------------
# Expressions → C
# ---------------------------------------------------------------------------


def _is_zero(expr: Expr) -> bool:
    if isinstance(expr, IntLit):
        return expr.value == 0
    if isinstance(expr, AffRef):
        return expr.aff.is_constant() and expr.aff.constant_value() == 0
    return False


class CpePrinter:
    """Pretty-prints the CPE program."""

    def __init__(self, program) -> None:
        self.program = program
        self.buffer_slots: Dict[str, int] = {}
        for decl in program.cpe_program.buffers:
            slots = decl.shape[0] if len(decl.shape) == 3 else 1
            self.buffer_slots[decl.name] = slots

    # -- expressions -----------------------------------------------------

    def expr(self, e: Expr) -> str:
        if isinstance(e, IntLit):
            return str(e.value)
        if isinstance(e, DoubleLit):
            return repr(e.value)
        if isinstance(e, VarRef):
            return e.name
        if isinstance(e, AffRef):
            return aff_to_c(e.aff)
        if isinstance(e, BinExpr):
            if e.op in ("min", "max"):
                fn = "MIN" if e.op == "min" else "MAX"
                return f"{fn}({self.expr(e.lhs)}, {self.expr(e.rhs)})"
            return f"({self.expr(e.lhs)} {e.op} {self.expr(e.rhs)})"
        if isinstance(e, ArrayRef):
            return self.array_ref(e)
        if isinstance(e, AddrOf):
            return f"&{self.array_ref(e.ref)}"
        raise CodegenError(f"cannot print expression {type(e).__name__}")

    def array_ref(self, ref: ArrayRef) -> str:
        indices = list(ref.indices)
        text = ref.array
        if ref.memory == "spm" and self.buffer_slots.get(ref.array, 1) == 1:
            # Single-slot buffers drop the slot index.
            slot = indices.pop(0)
            if not _is_zero(slot):
                raise CodegenError(
                    f"single-slot buffer {ref.array} with non-zero slot"
                )
        for index in indices:
            text += f"[{self.expr(index)}]"
        return text

    def spm_base(self, buffer: str, slot: Expr) -> str:
        """``&local_X[slot][0][0]`` (or ``&local_X[0][0]`` single-slot)."""
        if self.buffer_slots.get(buffer, 1) == 1:
            return f"&{buffer}[0][0]"
        return f"&{buffer}[{self.expr(slot)}][0][0]"

    # -- statements ----------------------------------------------------------

    def stmt(self, s: Stmt, depth: int) -> List[str]:
        pad = INDENT * depth
        if isinstance(s, Block):
            lines: List[str] = []
            for child in s.body:
                lines.extend(self.stmt(child, depth))
            return lines
        if isinstance(s, CommentStmt):
            return [f"{pad}/* {s.text} */"]
        if isinstance(s, ForLoop):
            note = f"  /* {s.annotation} */" if s.annotation else ""
            head = (
                f"{pad}for (int {s.var} = {self.expr(s.lo)}; "
                f"{s.var} < {self.expr(s.hi)}; {s.var}++) {{{note}"
            )
            lines = [head]
            lines.extend(self.stmt(s.body, depth + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(s, IfStmt):
            lines = [f"{pad}if ({self.expr(s.cond)}) {{"]
            lines.extend(self.stmt(s.then, depth + 1))
            if s.els is not None:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.stmt(s.els, depth + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(s, CommStmt):
            return [f"{pad}{line}" for line in self.comm(s)]
        if isinstance(s, KernelCall):
            c = self.spm_base(s.c_ref.array, s.c_ref.indices[0])
            a = self.spm_base(s.a_ref.array, s.a_ref.indices[0])
            b = self.spm_base(s.b_ref.array, s.b_ref.indices[0])
            return [f"{pad}{s.name}({c}, {a}, {b}, {self.expr(s.alpha)});"]
        if isinstance(s, BlockOpStmt):
            return self.block_op(s, depth)
        if isinstance(s, NaiveComputeStmt):
            return self.naive(s, depth)
        raise CodegenError(f"cannot print statement {type(s).__name__}")

    def comm(self, s: CommStmt) -> List[str]:
        args = s.args
        if s.kind == "reply_reset":
            return [f"{args['reply']}[{self.expr(args['reply_slot'])}] = 0;"]
        if s.kind in ("dma_iget", "dma_iput"):
            spm = self.spm_base(str(args["buffer"]), args["slot"])
            main = str(args["array"])
            if args.get("batch") is not None:
                main += f"[{self.expr(args['batch'])}]"
            main += f"[{self.expr(args['row'])}][{self.expr(args['col'])}]"
            reply = f"&{args['reply']}[{self.expr(args['reply_slot'])}]"
            strip = f"({args['ld_param']} - {args['len']})"
            ordered = (
                (spm, f"&{main}") if s.kind == "dma_iget" else (f"&{main}", spm)
            )
            return [
                f"{s.kind}({ordered[0]}, {ordered[1]}, {args['size']}, "
                f"{args['len']}, {strip}, {reply});"
            ]
        if s.kind in ("dma_wait_value", "rma_wait_value"):
            return [
                f"{s.kind}(&{args['reply']}[{self.expr(args['reply_slot'])}], "
                f"{args.get('value', 1)});"
            ]
        if s.kind in ("rma_row_ibcast", "rma_col_ibcast"):
            dst = self.spm_base(str(args["dst_buffer"]), args["dst_slot"])
            src = self.spm_base(str(args["src_buffer"]), args["src_slot"])
            slot = self.expr(args["reply_slot"])
            return [
                f"{s.kind}({dst}, {src}, {args['size']}, "
                f"&{args['replys']}[{slot}], &{args['replyr']}[{slot}]);"
            ]
        if s.kind == "synch":
            return ["athread_ssync_array();"]
        raise CodegenError(f"cannot print communication {s.kind!r}")

    def block_op(self, s: BlockOpStmt, depth: int) -> List[str]:
        pad = INDENT * depth
        rows, cols = s.shape
        base = self.spm_base(s.dst.array, s.dst.indices[0]).lstrip("&")
        # &local_C[0][0] style bases index as a flat [rows][cols] tile.
        tile = base.rsplit("[0][0]", 1)[0]
        lines = [
            f"{pad}for (int r = 0; r < {rows}; r++) {{",
            f"{pad}{INDENT}for (int c = 0; c < {cols}; c++) {{",
        ]
        element = f"{tile}[r][c]"
        if s.op == "scale":
            lines.append(f"{pad}{INDENT * 2}{element} *= {self.expr(s.factor)};")
        else:
            template = get_elementwise(s.func).c_template
            lines.append(
                f"{pad}{INDENT * 2}{element} = {template.format(x=element)};"
            )
        lines.append(f"{pad}{INDENT}}}")
        lines.append(f"{pad}}}")
        return lines

    def naive(self, s: NaiveComputeStmt, depth: int) -> List[str]:
        pad = INDENT * depth
        lines: List[str] = []
        for level, (var, extent) in enumerate(zip(s.loop_vars, s.extents)):
            lines.append(
                f"{pad}{INDENT * level}for (int {var} = 0; {var} < {extent}; "
                f"{var}++)"
            )
        body_pad = pad + INDENT * len(s.loop_vars)
        lines.append(
            f"{body_pad}{self.array_ref(s.target)} += {self.expr(s.value)};"
        )
        return lines

    # -- whole file -----------------------------------------------------------------

    def render(self) -> str:
        program = self.program
        spec = program.spec
        plan = program.plan
        lines: List[str] = []
        lines.append("/*")
        lines.append(" * CPE (slave) code generated by swgemm.")
        lines.append(f" * variant: {program.options.variant_name()}"
                     f", fusion: {program.options.fusion}")
        lines.append(f" * tile plan: {plan.mt}x{plan.nt}x{plan.kt} on a "
                     f"{plan.mesh}x{plan.mesh} CPE mesh "
                     f"({program.spm_bytes()} B of SPM)")
        lines.append(" * compile: swgcc -mslave -msimd -O3")
        lines.append(" */")
        lines.append('#include "athread.h"')
        lines.append('#include "swgemm_args.h"')
        lines.append("")
        if program.options.use_asm:
            from repro.codegen.backend import resolve_kernel

            kernel = resolve_kernel(
                program.arch, program.options, plan.kernel_shape
            )
            if hasattr(kernel, "source"):
                # Generated backends carry their own C body — inline it
                # so the printed file is self-contained (nothing to link
                # beyond the athread runtime).
                lines.append(kernel.source().rstrip("\n"))
            else:
                lines.append(
                    "/* The vendor-optimised inline assembly micro kernel "
                    "(compiled object, §7.2). */"
                )
                lines.append(
                    f"extern void {program.cpe_program.kernel_name}"
                    "(double *c, const double *a, const double *b, double alpha);"
                )
            lines.append("")
        for decl in program.cpe_program.buffers:
            dims = "".join(f"[{d}]" for d in decl.shape)
            lines.append(f"__thread_local {decl.dtype} {decl.name}{dims};")
        lines.append("")
        for reply in program.cpe_program.replies:
            lines.append(
                f"__thread_local volatile int {reply.name}[{max(reply.count, 1)}];"
            )
        lines.append("")
        lines.append("void swgemm_cpe(swgemm_args_t *args) {")
        lines.append(f"{INDENT}const int Rid = athread_get_row();")
        lines.append(f"{INDENT}const int Cid = athread_get_col();")
        params = list(spec.param_names())
        for p in params:
            lines.append(f"{INDENT}const int {p} = args->{p};")
        lines.append(f"{INDENT}const double alpha = args->alpha;")
        lines.append(f"{INDENT}const double beta = args->beta;")
        rank = 3 if spec.is_batched else 2
        for name in (spec.a_name, spec.b_name, spec.c_name):
            stars = "(*)" + "".join(
                f"[{d}]" for d in self._array_decl_dims(name)[1:]
            )
            lines.append(
                f"{INDENT}double {stars.replace('(*)', f'(*{name})')} = "
                f"args->{name};"
            )
        lines.append("")
        lines.extend(self.stmt(program.cpe_program.body, 1))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _array_decl_dims(self, name: str) -> List[str]:
        spec = self.program.spec
        dims = {
            spec.a_name: [spec.m_param, spec.k_param],
            spec.b_name: [spec.k_param, spec.n_param],
            spec.c_name: [spec.m_param, spec.n_param],
        }[name]
        if spec.is_batched:
            dims = [spec.batch_param] + dims
        return dims


def print_cpe_program(program) -> str:
    return CpePrinter(program).render()


def print_mpe_program(program) -> str:
    """The MPE (host) file: allocation, spawn, join, verification."""
    spec = program.spec
    plan = program.plan
    params = list(spec.param_names())
    lines: List[str] = []
    lines.append("/*")
    lines.append(" * MPE (host) code generated by swgemm.")
    lines.append(" * compile: swgcc -mhost -msimd -O3 -faddress_align=128")
    lines.append(" * link:    swgcc -mhybrid <mpe.o> <cpe.o> <asm kernel.o>")
    lines.append(" */")
    lines.append("#include <stdio.h>")
    lines.append("#include <stdlib.h>")
    lines.append('#include "athread.h"')
    lines.append('#include "swgemm_args.h"')
    lines.append("")
    lines.append("extern void slave_swgemm_cpe(swgemm_args_t *args);")
    lines.append("")
    lines.append("int main(int argc, char **argv) {")
    defaults = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
                spec.k_param: plan.k_step}
    if spec.is_batched:
        defaults[spec.batch_param] = 2
    for index, p in enumerate(params):
        lines.append(
            f"{INDENT}int {p} = argc > {index + 1} ? atoi(argv[{index + 1}]) "
            f": {defaults[p]};"
        )
    lines.append(f"{INDENT}/* Shapes must be padded to multiples of "
                 f"{plan.chunk_m}x{plan.chunk_n}x{plan.k_step} (Sec. 8.1). */")
    dims = {
        spec.a_name: (spec.m_param, spec.k_param),
        spec.b_name: (spec.k_param, spec.n_param),
        spec.c_name: (spec.m_param, spec.n_param),
    }
    batch = f"{spec.batch_param} * " if spec.is_batched else ""
    for name, (rows, cols) in dims.items():
        lines.append(
            f"{INDENT}double *{name} = (double *)memalign(128, "
            f"{batch}{rows} * {cols} * sizeof(double));"
        )
    lines.append(f"{INDENT}swgemm_args_t args;")
    for p in params:
        lines.append(f"{INDENT}args.{p} = {p};")
    lines.append(f"{INDENT}args.alpha = 1.0;")
    lines.append(f"{INDENT}args.beta = 1.0;")
    for name in dims:
        lines.append(f"{INDENT}args.{name} = {name};")
    lines.append("")
    lines.append(f"{INDENT}athread_init();")
    lines.append(f"{INDENT}unsigned long start = rtc();")
    lines.append(f"{INDENT}athread_spawn(slave_swgemm_cpe, &args);")
    lines.append(f"{INDENT}athread_join();")
    lines.append(f"{INDENT}unsigned long cycles = rtc() - start;")
    flops = " * ".join(["2.0"] + params)
    lines.append(f"{INDENT}double gflops = {flops} / cycles * CLOCK_GHZ;")
    lines.append(f'{INDENT}printf("%.2f Gflops\\n", gflops);')
    lines.append(f"{INDENT}athread_halt();")
    lines.append(f"{INDENT}return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"
