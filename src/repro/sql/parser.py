"""Recursive-descent parser for the SELECT dialect.

Grammar (informal)::

    query      :=  SELECT select_list FROM from_list
                   [WHERE expr] [GROUP BY columns] [ORDER BY columns]
                   [OPTION '(' USEPLAN integer ')']
    select_list := '*' | select_item (',' select_item)*
    select_item := expr [AS ident]
    from_list  :=  table_ref (',' table_ref)*
    table_ref  :=  ident [[AS] ident]
    expr       :=  or_expr
    or_expr    :=  and_expr (OR and_expr)*
    and_expr   :=  not_expr (AND not_expr)*
    not_expr   :=  [NOT] predicate
    predicate  :=  additive [comp additive | [NOT] BETWEEN additive AND additive
                   | [NOT] LIKE string | [NOT] IN '(' literals ')'
                   | IS [NOT] NULL]
    additive   :=  term (('+'|'-') term)*
    term       :=  factor (('*'|'/') factor)*
    factor     :=  '-' factor | primary
    primary    :=  literal | column | aggregate | '(' expr ')'
    aggregate  :=  (SUM|COUNT|AVG|MIN|MAX) '(' ('*' | expr) ')'
    column     :=  ident ['.' ident]
"""

from __future__ import annotations

from repro.algebra.expressions import (
    AggFunc,
    AggregateCall,
    Arithmetic,
    BoolExpr,
    BoolOp,
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
    InList,
    IsNull,
    Like,
    Literal,
    Scalar,
    UnaryMinus,
)
from repro.errors import ParseError
from repro.sql.ast import (
    OrderItem,
    QueryOptions,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize

__all__ = ["Parser", "parse"]

_COMP_OPS = {
    "=": CompOp.EQ,
    "<>": CompOp.NE,
    "<": CompOp.LT,
    "<=": CompOp.LE,
    ">": CompOp.GT,
    ">=": CompOp.GE,
}

_AGG_FUNCS = {
    "SUM": AggFunc.SUM,
    "COUNT": AggFunc.COUNT,
    "AVG": AggFunc.AVG,
    "MIN": AggFunc.MIN,
    "MAX": AggFunc.MAX,
}


class Parser:
    """Parses one SELECT statement from a token stream."""

    def __init__(self, text: str, tokens: list[Token] | None = None):
        #: ``tokens``: the text's token stream when the caller already
        #: lexed it (the plan cache fingerprints from the same stream)
        self.tokens = tokenize(text) if tokens is None else tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word}, found {token.value!r}")
        return self._advance()

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != punct:
            raise self._error(f"expected {punct!r}, found {token.value!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected identifier, found {token.value!r}")
        return self._advance().value

    def _match_keyword(self, *words: str) -> Token | None:
        token = self._peek()
        for word in words:
            if token.is_keyword(word):
                return self._advance()
        return None

    def _match_punct(self, punct: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == punct:
            return self._advance()
        return None

    def _match_operator(self, *ops: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            return self._advance()
        return None

    # ------------------------------------------------------------------
    # statement
    # ------------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select_items = self._parse_select_list()
        self._expect_keyword("FROM")
        from_tables = self._parse_from_list()

        where: Scalar | None = None
        if self._match_keyword("WHERE"):
            where = self.parse_expr()

        group_by: tuple[ColumnId, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(item.column for item in self._parse_column_list())

        order_by: tuple[OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_column_list()

        options = self._parse_options()

        token = self._peek()
        if token.type is not TokenType.EOF:
            raise self._error(f"unexpected trailing input {token.value!r}")
        return SelectStatement(
            select_items=select_items,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            order_by=order_by,
            options=options,
        )

    def _parse_select_list(self) -> tuple[SelectItem, ...]:
        if self._match_operator("*"):
            return (SelectItem(expr=None, star=True),)
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_from_list(self) -> tuple[TableRef, ...]:
        tables = [self._parse_table_ref()]
        while self._match_punct(","):
            tables.append(self._parse_table_ref())
        return tuple(tables)

    def _parse_table_ref(self) -> TableRef:
        table = self._expect_ident()
        alias: str | None = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return TableRef(table=table, alias=alias)

    def _parse_column_list(self) -> tuple[OrderItem, ...]:
        items = [OrderItem(self._parse_column_id())]
        while self._match_punct(","):
            items.append(OrderItem(self._parse_column_id()))
        return tuple(items)

    def _parse_column_id(self) -> ColumnId:
        first = self._expect_ident()
        if self._match_punct("."):
            second = self._expect_ident()
            return ColumnId(alias=first, column=second)
        return ColumnId(alias="", column=first)

    def _parse_options(self) -> QueryOptions:
        if not self._match_keyword("OPTION"):
            return QueryOptions()
        self._expect_punct("(")
        self._expect_keyword("USEPLAN")
        token = self._peek()
        if token.type is not TokenType.INTEGER:
            raise self._error(
                f"USEPLAN expects an integer plan number, found {token.value!r}"
            )
        self._advance()
        self._expect_punct(")")
        return QueryOptions(useplan=int(token.value))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expr(self) -> Scalar:
        return self._parse_or()

    def _parse_or(self) -> Scalar:
        args = [self._parse_and()]
        while self._match_keyword("OR"):
            args.append(self._parse_and())
        if len(args) == 1:
            return args[0]
        return BoolExpr(BoolOp.OR, tuple(args))

    def _parse_and(self) -> Scalar:
        args = [self._parse_not()]
        while self._match_keyword("AND"):
            args.append(self._parse_not())
        if len(args) == 1:
            return args[0]
        return BoolExpr(BoolOp.AND, tuple(args))

    def _parse_not(self) -> Scalar:
        if self._match_keyword("NOT"):
            return BoolExpr(BoolOp.NOT, (self._parse_not(),))
        return self._parse_predicate()

    def _parse_predicate(self) -> Scalar:
        left = self._parse_additive()

        negated = bool(self._match_keyword("NOT"))

        op_token = self._match_operator(*(_COMP_OPS.keys()))
        if op_token is not None:
            if negated:
                raise self._error("NOT must precede BETWEEN/LIKE/IN here")
            right = self._parse_additive()
            return Comparison(_COMP_OPS[op_token.value], left, right)

        if self._match_keyword("BETWEEN"):
            lo = self._parse_additive()
            self._expect_keyword("AND")
            hi = self._parse_additive()
            between = BoolExpr(
                BoolOp.AND,
                (
                    Comparison(CompOp.GE, left, lo),
                    Comparison(CompOp.LE, left, hi),
                ),
            )
            if negated:
                return BoolExpr(BoolOp.NOT, (between,))
            return between

        if self._match_keyword("LIKE"):
            token = self._peek()
            if token.type is not TokenType.STRING:
                raise self._error("LIKE expects a string pattern")
            self._advance()
            return Like(left, token.value, negated=negated)

        if self._match_keyword("IN"):
            self._expect_punct("(")
            values = [self._parse_literal_value()]
            while self._match_punct(","):
                values.append(self._parse_literal_value())
            self._expect_punct(")")
            return InList(left, tuple(values), negated=negated)

        if self._match_keyword("IS"):
            is_not = bool(self._match_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated=is_not)

        if negated:
            raise self._error("expected BETWEEN, LIKE, or IN after NOT")
        return left

    def _parse_literal_value(self) -> int | float | str:
        token = self._peek()
        if token.type is TokenType.INTEGER:
            self._advance()
            return int(token.value)
        if token.type is TokenType.FLOAT:
            self._advance()
            return float(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        raise self._error(f"expected a literal, found {token.value!r}")

    def _parse_additive(self) -> Scalar:
        left = self._parse_term()
        while True:
            token = self._match_operator("+", "-")
            if token is None:
                return left
            right = self._parse_term()
            left = Arithmetic(token.value, left, right)

    def _parse_term(self) -> Scalar:
        left = self._parse_factor()
        while True:
            token = self._match_operator("*", "/")
            if token is None:
                return left
            right = self._parse_factor()
            left = Arithmetic(token.value, left, right)

    def _parse_factor(self) -> Scalar:
        if self._match_operator("-"):
            return UnaryMinus(self._parse_factor())
        return self._parse_primary()

    def _parse_primary(self) -> Scalar:
        token = self._peek()

        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)

        if token.type is TokenType.KEYWORD and token.value in _AGG_FUNCS:
            func = _AGG_FUNCS[self._advance().value]
            self._expect_punct("(")
            if self._match_operator("*"):
                call = AggregateCall(func, None)
            else:
                call = AggregateCall(func, self.parse_expr())
            self._expect_punct(")")
            return call

        if token.type is TokenType.KEYWORD and token.value == "NULL":
            self._advance()
            return Literal(None)

        if self._match_punct("("):
            inner = self.parse_expr()
            self._expect_punct(")")
            return inner

        if token.type is TokenType.IDENT:
            return ColumnRef(self._parse_column_id())

        raise self._error(f"unexpected token {token.value!r} in expression")


def parse(text: str, tokens: list[Token] | None = None) -> SelectStatement:
    """Parse one SELECT statement (``tokens``: ``tokenize(text)``, when
    the caller already has it)."""
    return Parser(text, tokens).parse_statement()
