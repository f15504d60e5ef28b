"""Recursive-descent SQL parser.

Turns token streams produced by :mod:`repro.sql.lexer` into the AST defined
in :mod:`repro.sql.ast`.  The grammar covers the statements issued by the
TPC-W and RUBiS workloads and by the middleware itself (schema discovery,
recovery-log replay, checkpoint restore):

* ``SELECT`` with joins (``INNER``/``LEFT``/``CROSS`` and implicit comma
  joins), ``WHERE``, ``GROUP BY``/``HAVING``, ``ORDER BY``, ``LIMIT/OFFSET``,
  ``DISTINCT``, aggregates, scalar functions, ``CASE``, ``IN`` (list and
  subquery), ``BETWEEN``, ``LIKE``, ``EXISTS``;
* ``INSERT`` (``VALUES`` lists and ``INSERT ... SELECT``);
* ``UPDATE`` / ``DELETE`` with ``WHERE``;
* DDL: ``CREATE TABLE`` (column constraints, table-level PRIMARY KEY/UNIQUE),
  ``DROP TABLE``, ``CREATE [UNIQUE] INDEX``, ``DROP INDEX``,
  ``ALTER TABLE ... ADD COLUMN``;
* transaction control: ``BEGIN``/``START TRANSACTION``, ``COMMIT``,
  ``ROLLBACK``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement and return its AST."""
    parser = Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_expression(sql: str) -> ast.Expression:
    """Parse a standalone SQL expression (used by tests and cache rules)."""
    parser = Parser(tokenize(sql), sql)
    expression = parser.parse_expr()
    parser.expect_end()
    return expression


class Parser:
    """Stateful recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token], sql: str = ""):
        self._tokens = tokens
        self._sql = sql
        self._pos = 0
        self._parameter_count = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType, value: str = None) -> bool:
        return self.current.matches(token_type, value)

    def _check_keyword(self, *keywords: str) -> bool:
        return any(self.current.matches(TokenType.KEYWORD, kw) for kw in keywords)

    def _accept(self, token_type: TokenType, value: str = None) -> Optional[Token]:
        if self._check(token_type, value):
            return self._advance()
        return None

    def _accept_keyword(self, *keywords: str) -> Optional[Token]:
        for keyword in keywords:
            token = self._accept(TokenType.KEYWORD, keyword)
            if token is not None:
                return token
        return None

    def _expect(self, token_type: TokenType, value: str = None) -> Token:
        token = self._accept(token_type, value)
        if token is None:
            raise self._error(f"expected {value or token_type.name}")
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        return self._expect(TokenType.KEYWORD, keyword)

    def _error(self, message: str) -> SQLSyntaxError:
        token = self.current
        return SQLSyntaxError(
            f"{message}, found {token.value!r} at position {token.position}"
            f" in {self._sql[:200]!r}"
        )

    def expect_end(self) -> None:
        self._accept(TokenType.PUNCTUATION, ";")
        if not self._check(TokenType.EOF):
            raise self._error("unexpected trailing input")

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            return self.parse_select()
        if self._check_keyword("INSERT"):
            return self._parse_insert()
        if self._check_keyword("UPDATE"):
            return self._parse_update()
        if self._check_keyword("DELETE"):
            return self._parse_delete()
        if self._check_keyword("CREATE"):
            return self._parse_create()
        if self._check_keyword("DROP"):
            return self._parse_drop()
        if self._check_keyword("ALTER"):
            return self._parse_alter()
        if self._check_keyword("BEGIN", "START"):
            return self._parse_begin()
        if self._check_keyword("COMMIT"):
            self._advance()
            self._accept_keyword("WORK")
            return ast.Commit()
        if self._check_keyword("ROLLBACK"):
            self._advance()
            self._accept_keyword("WORK")
            return ast.Rollback()
        raise self._error("expected a SQL statement")

    def _parse_begin(self) -> ast.BeginTransaction:
        if self._accept_keyword("START"):
            self._expect_keyword("TRANSACTION")
        else:
            self._expect_keyword("BEGIN")
            self._accept_keyword("TRANSACTION")
            self._accept_keyword("WORK")
        return ast.BeginTransaction()

    # -- SELECT -------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        select = ast.Select()
        if self._accept_keyword("DISTINCT"):
            select.distinct = True
        else:
            self._accept_keyword("ALL")
        select.items = self._parse_select_items()
        if self._accept_keyword("FROM"):
            select.from_table = self._parse_table_ref()
            select.joins = self._parse_joins()
        if self._accept_keyword("WHERE"):
            select.where = self.parse_expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            select.group_by = self._parse_expression_list()
        if self._accept_keyword("HAVING"):
            select.having = self.parse_expr()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            select.order_by = self._parse_order_items()
        if self._accept_keyword("LIMIT"):
            first = self._parse_primary()
            if self._accept(TokenType.PUNCTUATION, ","):
                # MySQL style: LIMIT offset, count
                select.offset = first
                select.limit = self._parse_primary()
            else:
                select.limit = first
                if self._accept_keyword("OFFSET"):
                    select.offset = self._parse_primary()
        return select

    def _parse_select_items(self) -> List[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expression = self.parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._parse_identifier()
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._parse_identifier()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._parse_identifier()
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return ast.TableRef(name, alias)

    def _parse_joins(self) -> List[ast.Join]:
        joins: List[ast.Join] = []
        while True:
            if self._accept(TokenType.PUNCTUATION, ","):
                joins.append(ast.Join("CROSS", self._parse_table_ref()))
                continue
            kind = None
            if self._check_keyword("JOIN", "INNER"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                kind = "INNER"
            elif self._check_keyword("LEFT"):
                self._advance()
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._check_keyword("CROSS"):
                self._advance()
                self._expect_keyword("JOIN")
                kind = "CROSS"
            else:
                break
            table = self._parse_table_ref()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self.parse_expr()
            joins.append(ast.Join(kind, table, condition))
        return joins

    def _parse_order_items(self) -> List[ast.OrderItem]:
        items = []
        while True:
            expression = self.parse_expr()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(ast.OrderItem(expression, descending))
            if not self._accept(TokenType.PUNCTUATION, ","):
                return items

    def _parse_expression_list(self) -> List[ast.Expression]:
        expressions = [self.parse_expr()]
        while self._accept(TokenType.PUNCTUATION, ","):
            expressions.append(self.parse_expr())
        return expressions

    # -- INSERT / UPDATE / DELETE -------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_identifier()
        columns: List[str] = []
        if self._accept(TokenType.PUNCTUATION, "("):
            columns.append(self._parse_identifier())
            while self._accept(TokenType.PUNCTUATION, ","):
                columns.append(self._parse_identifier())
            self._expect(TokenType.PUNCTUATION, ")")
        if self._check_keyword("SELECT"):
            return ast.Insert(table, columns, [], self.parse_select())
        self._expect_keyword("VALUES")
        rows: List[List[ast.Expression]] = []
        while True:
            self._expect(TokenType.PUNCTUATION, "(")
            row = [self.parse_expr()]
            while self._accept(TokenType.PUNCTUATION, ","):
                row.append(self.parse_expr())
            self._expect(TokenType.PUNCTUATION, ")")
            rows.append(row)
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        return ast.Insert(table, columns, rows)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._parse_identifier()
        self._expect_keyword("SET")
        assignments: List[Tuple[str, ast.Expression]] = []
        while True:
            column = self._parse_identifier()
            if self._accept(TokenType.PUNCTUATION, "."):
                column = self._parse_identifier()
            self._expect(TokenType.OPERATOR, "=")
            assignments.append((column, self.parse_expr()))
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table, assignments, where)

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_identifier()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table, where)

    # -- DDL ----------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        temporary = False
        if self._check(TokenType.IDENTIFIER) and self.current.value.upper() == "TEMPORARY":
            self._advance()
            temporary = True
        if self._accept_keyword("TABLE"):
            return self._parse_create_table(temporary)
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("INDEX"):
            return self._parse_create_index(unique)
        raise self._error("expected TABLE or INDEX after CREATE")

    def _parse_create_table(self, temporary: bool) -> ast.CreateTable:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            if not (
                self._accept(TokenType.IDENTIFIER)
                or self._accept_keyword("EXISTS")
            ):
                raise self._error("expected EXISTS")
            if_not_exists = True
        table = self._parse_identifier()
        statement = ast.CreateTable(
            table, if_not_exists=if_not_exists, temporary=temporary
        )
        self._expect(TokenType.PUNCTUATION, "(")
        while True:
            if self._check_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                statement.primary_key = self._parse_paren_identifier_list()
            elif self._check_keyword("UNIQUE"):
                self._advance()
                self._accept_keyword("KEY")
                self._accept_keyword("INDEX")
                if self._check(TokenType.IDENTIFIER) and not self._check(
                    TokenType.PUNCTUATION, "("
                ):
                    # optional constraint name
                    if self._tokens[self._pos + 1].matches(TokenType.PUNCTUATION, "("):
                        self._advance()
                statement.unique_constraints.append(
                    self._parse_paren_identifier_list()
                )
            elif self._check_keyword("FOREIGN"):
                # Foreign keys are parsed and ignored (not enforced), like
                # MySQL MyISAM did at the time of the paper.
                self._skip_constraint_definition()
            elif self._check_keyword("KEY", "INDEX"):
                self._advance()
                if self._check(TokenType.IDENTIFIER):
                    self._advance()
                self._parse_paren_identifier_list()
            else:
                statement.columns.append(self._parse_column_def())
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        self._expect(TokenType.PUNCTUATION, ")")
        # Ignore trailing table options such as ENGINE=InnoDB.
        while not self._check(TokenType.EOF) and not self._check(
            TokenType.PUNCTUATION, ";"
        ):
            self._advance()
        return statement

    def _skip_constraint_definition(self) -> None:
        depth = 0
        while not self._check(TokenType.EOF):
            if self._check(TokenType.PUNCTUATION, "("):
                depth += 1
            elif self._check(TokenType.PUNCTUATION, ")"):
                if depth == 0:
                    return
                depth -= 1
            elif self._check(TokenType.PUNCTUATION, ",") and depth == 0:
                return
            self._advance()

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._parse_identifier()
        type_name = self._parse_identifier_or_keyword()
        length = None
        if self._accept(TokenType.PUNCTUATION, "("):
            length_token = self._expect(TokenType.NUMBER)
            length = int(float(length_token.value))
            if self._accept(TokenType.PUNCTUATION, ","):
                self._expect(TokenType.NUMBER)  # DECIMAL(p, s) scale, ignored
            self._expect(TokenType.PUNCTUATION, ")")
        column = ast.ColumnDef(name, type_name, length)
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._accept_keyword("NULL"):
                pass
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
                column.not_null = True
            elif self._accept_keyword("UNIQUE"):
                column.unique = True
            elif self._accept_keyword("AUTO_INCREMENT"):
                column.auto_increment = True
            elif self._accept_keyword("DEFAULT"):
                start = self._pos
                sign = self._accept(TokenType.OPERATOR, "-") or self._accept(
                    TokenType.OPERATOR, "+"
                )
                default = self._parse_primary()
                if type(default) is not ast.Literal or (
                    sign is not None and type(default.value) not in (int, float)
                ):
                    # a backend would store NULL, or each its own value
                    self._pos = start
                    raise self._error(f"DEFAULT of column {name!r} must be a constant")
                if sign is not None and sign.value == "-":
                    default = ast.Literal(-default.value)
                column.default = default
            else:
                break
        return column

    def _parse_paren_identifier_list(self) -> List[str]:
        self._expect(TokenType.PUNCTUATION, "(")
        names = [self._parse_identifier()]
        while self._accept(TokenType.PUNCTUATION, ","):
            names.append(self._parse_identifier())
        self._expect(TokenType.PUNCTUATION, ")")
        return names

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self._parse_identifier()
        self._expect_keyword("ON")
        table = self._parse_identifier()
        columns = self._parse_paren_identifier_list()
        return ast.CreateIndex(name, table, columns, unique)

    def _parse_drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = False
            if self._accept_keyword("IF"):
                if not (
                    self._accept(TokenType.IDENTIFIER)
                    or self._accept_keyword("EXISTS")
                ):
                    raise self._error("expected EXISTS")
                if_exists = True
            table = self._parse_identifier()
            return ast.DropTable(table, if_exists)
        if self._accept_keyword("INDEX"):
            name = self._parse_identifier()
            table = None
            if self._accept_keyword("ON"):
                table = self._parse_identifier()
            return ast.DropIndex(name, table)
        raise self._error("expected TABLE or INDEX after DROP")

    def _parse_alter(self) -> ast.AlterTableAddColumn:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._parse_identifier()
        self._expect_keyword("ADD")
        # optional COLUMN keyword (identifier in our keyword set)
        if self._check(TokenType.IDENTIFIER) and self.current.value.upper() == "COLUMN":
            self._advance()
        column = self._parse_column_def()
        return ast.AlterTableAddColumn(table, column)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        if self._check_keyword("EXISTS"):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            subquery = self.parse_select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.ExistsSubquery(subquery)
        left = self._parse_additive()
        while True:
            negated = False
            if self._check_keyword("NOT") and self._tokens[self._pos + 1].type is TokenType.KEYWORD and self._tokens[self._pos + 1].value in ("IN", "LIKE", "BETWEEN"):
                self._advance()
                negated = True
            if self._accept_keyword("IS"):
                is_negated = bool(self._accept_keyword("NOT"))
                self._expect_keyword("NULL")
                left = ast.IsNull(left, is_negated)
                continue
            if self._accept_keyword("IN"):
                left = self._parse_in(left, negated)
                continue
            if self._accept_keyword("LIKE"):
                operator = "NOT LIKE" if negated else "LIKE"
                left = ast.BinaryOp(operator, left, self._parse_additive())
                continue
            if self._accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.Between(left, low, high, negated)
                continue
            if self._check(TokenType.OPERATOR) and self.current.value in (
                "=",
                "<",
                "<=",
                ">",
                ">=",
                "<>",
                "!=",
            ):
                operator = self._advance().value
                if operator == "!=":
                    operator = "<>"
                left = ast.BinaryOp(operator, left, self._parse_additive())
                continue
            return left

    def _parse_in(self, operand: ast.Expression, negated: bool) -> ast.Expression:
        self._expect(TokenType.PUNCTUATION, "(")
        if self._check_keyword("SELECT"):
            subquery = self.parse_select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.InSubquery(operand, subquery, negated)
        items = [self.parse_expr()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self.parse_expr())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.InList(operand, items, negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._check(TokenType.OPERATOR) and self.current.value in ("+", "-", "||"):
            operator = self._advance().value
            left = ast.BinaryOp(operator, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._check(TokenType.OPERATOR) and self.current.value in ("*", "/", "%"):
            operator = self._advance().value
            left = ast.BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._check(TokenType.OPERATOR) and self.current.value in ("-", "+"):
            operator = self._advance().value
            return ast.UnaryOp(operator, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self._advance()
            if "." in token.value or "e" in token.value.lower():
                return ast.Literal(float(token.value))
            return ast.Literal(int(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAMETER:
            self._advance()
            span = (token.position, token.position + len(token.value))
            parameter = ast.Parameter(self._parameter_count, span)
            self._parameter_count += 1
            return parameter
        if token.matches(TokenType.KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches(TokenType.KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches(TokenType.KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches(TokenType.KEYWORD, "CASE"):
            return self._parse_case()
        if token.type is TokenType.KEYWORD and token.value in (
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
        ):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            return self._parse_function_args(token.value, token.position)
        if self._accept(TokenType.PUNCTUATION, "("):
            if self._check_keyword("SELECT"):
                subquery = self.parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.ScalarSubquery(subquery)
            expression = self.parse_expr()
            self._expect(TokenType.PUNCTUATION, ")")
            return expression
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            name = token.value
            if self._accept(TokenType.PUNCTUATION, "("):
                return self._parse_function_args(name, token.position)
            if self._accept(TokenType.PUNCTUATION, "."):
                if self._check(TokenType.OPERATOR, "*"):
                    self._advance()
                    return ast.Star(table=name)
                column = self._parse_identifier()
                return ast.ColumnRef(column, name)
            return ast.ColumnRef(name)
        raise self._error("expected an expression")

    def _parse_case(self) -> ast.CaseExpression:
        self._expect_keyword("CASE")
        case = ast.CaseExpression()
        while self._accept_keyword("WHEN"):
            condition = self.parse_expr()
            self._expect_keyword("THEN")
            case.whens.append((condition, self.parse_expr()))
        if self._accept_keyword("ELSE"):
            case.default = self.parse_expr()
        self._expect_keyword("END")
        return case

    def _parse_function_args(self, name: str, start: int) -> ast.FunctionCall:
        """The rest of a call whose name starts at ``start``, after its ``(``."""
        call = ast.FunctionCall(name)
        close = self._accept(TokenType.PUNCTUATION, ")")
        if close is not None:
            call.span = (start, close.position + 1)
            return call
        if self._accept_keyword("DISTINCT"):
            call.distinct = True
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            call.args.append(ast.Star())
        else:
            call.args.append(self.parse_expr())
            while self._accept(TokenType.PUNCTUATION, ","):
                call.args.append(self.parse_expr())
        call.span = (start, self._expect(TokenType.PUNCTUATION, ")").position + 1)
        return call

    # -- identifiers ----------------------------------------------------------

    def _parse_identifier(self) -> str:
        if self._check(TokenType.IDENTIFIER):
            return self._advance().value
        # Allow non-reserved keywords to be used as identifiers (e.g. a column
        # named "key" or a table named "order_line" is fine, but also KEY).
        if self._check(TokenType.KEYWORD) and self.current.value in (
            "KEY",
            "ORDER",
            "GROUP",
            "INDEX",
            "WORK",
            "END",
        ):
            return self._advance().value
        raise self._error("expected an identifier")

    def _parse_identifier_or_keyword(self) -> str:
        if self._check(TokenType.IDENTIFIER) or self._check(TokenType.KEYWORD):
            return self._advance().value
        raise self._error("expected a type name")
