"""Recursive-descent parser for the loop-based language.

The grammar implemented here covers every program in Appendix B of the paper.
Statements are terminated by ``;``, blocks are delimited by ``{`` / ``}``,
assignment is spelled ``:=`` and incremental updates use compound operators
(``+=``, ``*=``, ``^=``, ``^^=`` ...).  Parenthesized comma-separated
expressions denote tuples; calls with an uppercase name are typically record
constructors registered with the runtime (e.g. ``ArgMin``/``Avg`` in the
KMeans program).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ParseError
from repro.loop_lang import ast
from repro.loop_lang.lexer import Token, tokenize

#: Incremental-update symbols mapped to the underlying binary operator.
INCREMENT_OPERATORS = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "^=": "^",
    "^^=": "^^",
}

_COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")
_ADDITIVE_OPS = ("+", "-", "^", "^^")
_MULTIPLICATIVE_OPS = ("*", "/", "%")


class Parser:
    """Parses a token stream into loop-language AST nodes."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token helpers ------------------------------------------------------

    def _current(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def _check_symbol(self, text: str) -> bool:
        token = self.tokens[self.position]
        return token.kind == "symbol" and token.text == text

    def _check_keyword(self, text: str) -> bool:
        token = self.tokens[self.position]
        return token.kind == "keyword" and token.text == text

    def _match_symbol(self, text: str) -> bool:
        if self._check_symbol(text):
            self._advance()
            return True
        return False

    def _match_keyword(self, text: str) -> bool:
        if self._check_keyword(text):
            self._advance()
            return True
        return False

    def _expect_symbol(self, text: str) -> Token:
        token = self._current()
        if not token.is_symbol(text):
            raise ParseError(f"expected {text!r} but found {token}", token.location)
        return self._advance()

    def _expect_keyword(self, text: str) -> Token:
        token = self._current()
        if not token.is_keyword(text):
            raise ParseError(f"expected keyword {text!r} but found {token}", token.location)
        return self._advance()

    def _expect_identifier(self) -> Token:
        token = self._current()
        if token.kind != "ident":
            raise ParseError(f"expected an identifier but found {token}", token.location)
        return self._advance()

    # -- program / statements ----------------------------------------------

    def parse_program(self) -> ast.Program:
        statements: list[ast.Stmt] = []
        while self._current().kind != "eof":
            statements.append(self.parse_statement())
        return ast.Program(tuple(statements))

    def parse_statement(self) -> ast.Stmt:
        # Tolerate stray semicolons between statements (the Appendix programs
        # end blocks with "};").
        while self._match_symbol(";"):
            pass
        token = self._current()
        statement = self._parse_statement_body(token)
        if statement.location.line <= 0 and token.location.line > 0:
            statement = dataclasses.replace(statement, location=token.location)
        return statement

    def _parse_statement_body(self, token: "Token") -> ast.Stmt:
        if token.is_keyword("var"):
            return self._parse_var_decl()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_symbol("{"):
            return self._parse_block()
        return self._parse_simple_statement()

    def _parse_var_decl(self) -> ast.VarDecl:
        self._expect_keyword("var")
        name = self._expect_identifier().text
        self._expect_symbol(":")
        var_type = self.parse_type()
        self._expect_symbol("=")
        init = self.parse_expression()
        self._expect_symbol(";")
        return ast.VarDecl(name, var_type, init)

    def _parse_for(self) -> ast.Stmt:
        self._expect_keyword("for")
        variable = self._expect_identifier().text
        if self._match_keyword("in"):
            source = self.parse_expression()
            self._expect_keyword("do")
            body = self.parse_statement()
            return ast.ForIn(variable, source, body)
        self._expect_symbol("=")
        lower = self.parse_expression()
        self._expect_symbol(",")
        upper = self.parse_expression()
        self._expect_keyword("do")
        body = self.parse_statement()
        return ast.ForRange(variable, lower, upper, body)

    def _parse_while(self) -> ast.While:
        self._expect_keyword("while")
        self._expect_symbol("(")
        condition = self.parse_expression()
        self._expect_symbol(")")
        body = self.parse_statement()
        return ast.While(condition, body)

    def _parse_if(self) -> ast.If:
        self._expect_keyword("if")
        self._expect_symbol("(")
        condition = self.parse_expression()
        self._expect_symbol(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self._match_keyword("else"):
            else_branch = self.parse_statement()
        return ast.If(condition, then_branch, else_branch)

    def _parse_block(self) -> ast.Block:
        self._expect_symbol("{")
        statements: list[ast.Stmt] = []
        while not self._check_symbol("}"):
            if self._current().kind == "eof":
                raise ParseError("unterminated block", self._current().location)
            if self._match_symbol(";"):
                continue
            statements.append(self.parse_statement())
        self._expect_symbol("}")
        # Optional trailing semicolon after a block ("};" in the Appendix).
        self._match_symbol(";")
        return ast.Block(tuple(statements))

    def _parse_simple_statement(self) -> ast.Stmt:
        destination = self.parse_expression()
        if not ast.is_destination(destination):
            raise ParseError(
                f"expression {destination} is not a valid assignment destination",
                self._current().location,
            )
        token = self._current()
        if token.kind == "symbol" and token.text in INCREMENT_OPERATORS:
            self._advance()
            value = self.parse_expression()
            self._expect_symbol(";")
            return ast.IncrementalUpdate(destination, INCREMENT_OPERATORS[token.text], value)
        if self._match_symbol(":="):
            value = self.parse_expression()
            self._expect_symbol(";")
            return ast.Assign(destination, value)
        raise ParseError(f"expected ':=' or an incremental operator but found {token}", token.location)

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> ast.Type:
        token = self._current()
        if token.is_symbol("("):
            self._advance()
            elements = [self.parse_type()]
            while self._match_symbol(","):
                elements.append(self.parse_type())
            self._expect_symbol(")")
            return ast.TupleType(tuple(elements))
        name_token = self._expect_identifier()
        name = name_token.text.lower()
        if self._match_symbol("["):
            parameters = [self.parse_type()]
            while self._match_symbol(","):
                parameters.append(self.parse_type())
            self._expect_symbol("]")
            return ast.ParametricType(name, tuple(parameters))
        return ast.BasicType(name)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check_symbol("||"):
            self._advance()
            right = self._parse_and()
            left = ast.BinOp("||", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._check_symbol("&&"):
            self._advance()
            right = self._parse_not()
            left = ast.BinOp("&&", left, right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._check_symbol("!"):
            self._advance()
            return ast.UnaryOp("!", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._current()
        if token.kind == "symbol" and token.text in _COMPARISON_OPS:
            self._advance()
            right = self._parse_additive()
            return ast.BinOp(token.text, left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._current()
            if token.kind == "symbol" and token.text in _ADDITIVE_OPS:
                self._advance()
                right = self._parse_multiplicative()
                left = ast.BinOp(token.text, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._current()
            if token.kind == "symbol" and token.text in _MULTIPLICATIVE_OPS:
                self._advance()
                right = self._parse_unary()
                left = ast.BinOp(token.text, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self._check_symbol("-"):
            self._advance()
            operand = self._parse_unary()
            if isinstance(operand, ast.Const) and isinstance(operand.value, (int, float)):
                return ast.Const(-operand.value)
            return ast.UnaryOp("-", operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._check_symbol("["):
                self._advance()
                indices = [self.parse_expression()]
                while self._match_symbol(","):
                    indices.append(self.parse_expression())
                self._expect_symbol("]")
                expr = ast.Index(expr, tuple(indices))
            elif self._check_symbol("."):
                self._advance()
                attribute_token = self._current()
                if attribute_token.kind == "ident":
                    self._advance()
                    attribute = attribute_token.text
                elif attribute_token.kind == "int":
                    # allow ".1" style projections just in case
                    self._advance()
                    attribute = f"_{attribute_token.text}"
                else:
                    raise ParseError(
                        f"expected an attribute name after '.' but found {attribute_token}",
                        attribute_token.location,
                    )
                expr = ast.Project(expr, attribute)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._current()
        if token.kind == "int":
            self._advance()
            return ast.Const(int(token.text))
        if token.kind == "float":
            self._advance()
            return ast.Const(float(token.text))
        if token.kind == "string":
            self._advance()
            return ast.Const(token.text)
        if token.is_keyword("true"):
            self._advance()
            return ast.Const(True)
        if token.is_keyword("false"):
            self._advance()
            return ast.Const(False)
        if token.kind == "ident":
            self._advance()
            if self._check_symbol("("):
                self._advance()
                arguments: list[ast.Expr] = []
                if not self._check_symbol(")"):
                    arguments.append(self.parse_expression())
                    while self._match_symbol(","):
                        arguments.append(self.parse_expression())
                self._expect_symbol(")")
                return ast.Call(token.text, tuple(arguments))
            return ast.Var(token.text, token.location)
        if token.is_symbol("("):
            self._advance()
            elements = [self.parse_expression()]
            while self._match_symbol(","):
                elements.append(self.parse_expression())
            self._expect_symbol(")")
            if len(elements) == 1:
                return elements[0]
            return ast.TupleExpr(tuple(elements))
        raise ParseError(f"unexpected token {token}", token.location)


def parse_program(source: str) -> ast.Program:
    """Parse a complete loop-language program from source text."""
    parser = Parser(tokenize(source))
    program = parser.parse_program()
    return program


def parse_expression(source: str) -> ast.Expr:
    """Parse a single loop-language expression (useful in tests)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    token = parser._current()
    if token.kind != "eof":
        raise ParseError(f"unexpected trailing input {token}", token.location)
    return expr


def parse_statement(source: str) -> ast.Stmt:
    """Parse a single loop-language statement (useful in tests)."""
    parser = Parser(tokenize(source))
    stmt = parser.parse_statement()
    token = parser._current()
    if token.kind != "eof":
        raise ParseError(f"unexpected trailing input {token}", token.location)
    return stmt
