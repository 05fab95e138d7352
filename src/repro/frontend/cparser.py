"""Recursive-descent parser for the supported C subset."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.frontend.cast import (
    CArrayRef,
    CAssign,
    CBinary,
    CCall,
    CDecl,
    CExpr,
    CFloatLit,
    CFor,
    CFunction,
    CIdent,
    CIf,
    CIntLit,
    CParam,
    CStmt,
    CTranslationUnit,
    CUnary,
)
from repro.frontend.lexer import Token, tokenize

_TYPES = ("void", "int", "double", "float")

# Binary operators by increasing precedence tier.
_PRECEDENCE = [
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
]


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(f"{message}, got {tok.kind} {tok.text!r}", tok.line, tok.column)

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            tok = self.current
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            raise self._error(f"expected {text or kind}")
        return tok

    # -- top level ------------------------------------------------------------

    def parse_translation_unit(self) -> CTranslationUnit:
        functions: List[CFunction] = []
        while not self.at("eof"):
            functions.append(self.parse_function())
        if not functions:
            raise ParseError("empty translation unit")
        return CTranslationUnit(functions)

    def parse_function(self) -> CFunction:
        self.accept("keyword", "const")
        rtype = self.expect("keyword").text
        if rtype not in _TYPES:
            raise self._error(f"unknown return type {rtype!r}")
        name = self.expect("ident").text
        line = self.tokens[self.pos - 1].line
        self.expect("punct", "(")
        params: List[CParam] = []
        if not self.at("punct", ")"):
            params.append(self.parse_param())
            while self.accept("punct", ","):
                params.append(self.parse_param())
        self.expect("punct", ")")
        self.expect("punct", "{")
        body = self.parse_block_body()
        return CFunction(name, rtype, params, body, line)

    def parse_param(self) -> CParam:
        self.accept("keyword", "const")
        ctype_tok = self.expect("keyword")
        if ctype_tok.text not in ("int", "double", "float"):
            raise self._error(f"unsupported parameter type {ctype_tok.text!r}")
        name = self.expect("ident").text
        dims: List[CExpr] = []
        while self.accept("punct", "["):
            dims.append(self.parse_expression())
            self.expect("punct", "]")
        return CParam(ctype_tok.text, name, tuple(dims))

    # -- statements ---------------------------------------------------------------

    def parse_block_body(self) -> List[CStmt]:
        stmts: List[CStmt] = []
        while not self.accept("punct", "}"):
            if self.at("eof"):
                raise self._error("unterminated block")
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> CStmt:
        if self.at("keyword", "for"):
            return self.parse_for()
        if self.at("keyword", "if"):
            return self.parse_if()
        if self.at("keyword", "int") or self.at("keyword", "double") or self.at(
            "keyword", "float"
        ):
            return self.parse_decl()
        if self.accept("punct", "{"):
            # A bare compound statement flattens into its contents via a
            # zero-iteration-overhead wrapper: represent as CIf(true)?  No:
            # simply parse and wrap in an always-true if to keep structure.
            body = self.parse_block_body()
            return CIf(CIntLit(1), body)
        return self.parse_assignment()

    def parse_decl(self) -> CDecl:
        ctype = self.expect("keyword").text
        name = self.expect("ident").text
        line = self.tokens[self.pos - 1].line
        init = None
        if self.accept("op", "="):
            init = self.parse_expression()
        self.expect("punct", ";")
        return CDecl(ctype, name, init, line)

    def parse_for(self) -> CFor:
        line = self.expect("keyword", "for").line
        self.expect("punct", "(")
        # init: "int i = lo;" or "i = lo;"
        self.accept("keyword", "int")
        var = self.expect("ident").text
        self.expect("op", "=")
        lower = self.parse_expression()
        self.expect("punct", ";")
        # condition: "i < hi" (also accepts "i <= hi - 1" forms)
        cond_var = self.expect("ident").text
        if cond_var != var:
            raise self._error(f"loop condition must test {var!r}")
        op = self.expect("op").text
        if op not in ("<", "<="):
            raise self._error("loop condition must use < or <=")
        upper = self.parse_expression()
        if op == "<=":
            upper = CBinary("+", upper, CIntLit(1))
        self.expect("punct", ";")
        # increment: i++ / ++i / i += 1 / i = i + 1
        self._parse_increment(var)
        self.expect("punct", ")")
        body = self._loop_body()
        return CFor(var, lower, upper, body, line)

    def _parse_increment(self, var: str) -> None:
        if self.accept("op", "++"):
            name = self.expect("ident").text
        else:
            name = self.expect("ident").text
            if self.accept("op", "++"):
                pass
            elif self.accept("op", "+="):
                step = self.parse_expression()
                if not (isinstance(step, CIntLit) and step.value == 1):
                    raise self._error("only unit-stride loops are supported")
            elif self.accept("op", "="):
                expr = self.parse_expression()
                ok = (
                    isinstance(expr, CBinary)
                    and expr.op == "+"
                    and isinstance(expr.lhs, CIdent)
                    and expr.lhs.name == var
                    and isinstance(expr.rhs, CIntLit)
                    and expr.rhs.value == 1
                )
                if not ok:
                    raise self._error("only unit-stride loops are supported")
            else:
                raise self._error("unsupported loop increment")
        if name != var:
            raise self._error(f"loop increment must update {var!r}")

    def _loop_body(self) -> List[CStmt]:
        if self.accept("punct", "{"):
            return self.parse_block_body()
        return [self.parse_statement()]

    def parse_if(self) -> CIf:
        line = self.expect("keyword", "if").line
        self.expect("punct", "(")
        cond = self.parse_expression()
        self.expect("punct", ")")
        then = self._loop_body()
        els = None
        if self.accept("keyword", "else"):
            els = self._loop_body()
        return CIf(cond, then, els, line)

    def parse_assignment(self) -> CAssign:
        target = self.parse_postfix()
        if not isinstance(target, (CArrayRef, CIdent)):
            raise self._error("assignment target must be a variable or array element")
        op_tok = self.expect("op")
        if op_tok.text not in ("=", "+=", "-=", "*="):
            raise self._error(f"unsupported assignment operator {op_tok.text!r}")
        value = self.parse_expression()
        self.expect("punct", ";")
        return CAssign(target, op_tok.text, value, op_tok.line)

    # -- expressions (precedence climbing) ----------------------------------------

    def parse_expression(self, tier: int = 0) -> CExpr:
        if tier == len(_PRECEDENCE):
            return self.parse_unary()
        expr = self.parse_expression(tier + 1)
        ops = _PRECEDENCE[tier]
        while self.current.kind == "op" and self.current.text in ops:
            op = self.expect("op").text
            rhs = self.parse_expression(tier + 1)
            expr = CBinary(op, expr, rhs, self.current.line)
        return expr

    def parse_unary(self) -> CExpr:
        if self.accept("op", "-"):
            return CUnary("-", self.parse_unary(), self.current.line)
        if self.accept("op", "!"):
            return CUnary("!", self.parse_unary(), self.current.line)
        return self.parse_postfix()

    def parse_postfix(self) -> CExpr:
        expr = self.parse_primary()
        while True:
            if self.at("punct", "["):
                if not isinstance(expr, (CIdent, CArrayRef)):
                    raise self._error("subscript of a non-array expression")
                indices = list(expr.indices) if isinstance(expr, CArrayRef) else []
                array = expr.array if isinstance(expr, CArrayRef) else expr.name
                self.expect("punct", "[")
                indices.append(self.parse_expression())
                self.expect("punct", "]")
                expr = CArrayRef(array, tuple(indices), self.current.line)
            elif self.at("punct", "(") and isinstance(expr, CIdent):
                self.expect("punct", "(")
                args: List[CExpr] = []
                if not self.at("punct", ")"):
                    args.append(self.parse_expression())
                    while self.accept("punct", ","):
                        args.append(self.parse_expression())
                self.expect("punct", ")")
                expr = CCall(expr.name, tuple(args), self.current.line)
            else:
                return expr

    def parse_primary(self) -> CExpr:
        if self.accept("punct", "("):
            expr = self.parse_expression()
            self.expect("punct", ")")
            return expr
        tok = self.current
        if self.accept("int"):
            return CIntLit(int(tok.text), tok.line)
        if self.accept("float"):
            return CFloatLit(float(tok.text), tok.line)
        if self.accept("ident"):
            return CIdent(tok.text, tok.line)
        raise self._error("expected an expression")


def parse_c(source: str) -> CTranslationUnit:
    """Parse C source into a translation unit."""
    return Parser(tokenize(source)).parse_translation_unit()
