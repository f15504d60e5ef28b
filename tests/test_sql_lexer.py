"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.lexer import TokenType, tokenize


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)][:-1]  # drop EOF


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select * from items")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[0].value == "SELECT"
        assert tokens[2].value == "FROM"

    def test_identifiers_keep_case(self):
        tokens = tokenize("SELECT i_Title FROM Item")
        assert tokens[1].value == "i_Title"
        assert tokens[3].value == "Item"

    def test_ends_with_eof(self):
        assert tokenize("SELECT 1")[-1].type is TokenType.EOF

    def test_positions_are_start_offsets(self):
        # words, strings, quoted identifiers and numbers alike
        assert [token.position for token in tokenize("delete cart lines")] == [0, 7, 12, 17]
        sql = "SELECT 'it''s', `q`, 3.5 FROM t"
        starts = [sql[token.position] for token in tokenize(sql)[:-1]]
        assert starts == ["S", "'", ",", "`", ",", "3", "F", "t"]

    def test_numbers_integer_and_float(self):
        assert values("SELECT 42, 3.14, 1e5") == ["SELECT", "42", ",", "3.14", ",", "1e5"]

    def test_string_literal(self):
        tokens = tokenize("SELECT 'hello world'")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "hello world"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_backslash_escaped_quote(self):
        tokens = tokenize(r"SELECT 'it\'s'")
        assert tokens[1].value == "it's"

    def test_quoted_identifier(self):
        tokens = tokenize('SELECT "weird name" FROM `table`')
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "weird name"
        assert tokens[3].value == "table"

    def test_parameter_markers(self):
        tokens = tokenize("SELECT * FROM t WHERE a = ? AND b = %s")
        parameters = [t for t in tokens if t.type is TokenType.PARAMETER]
        assert [t.value for t in parameters] == ["?", "%s"]

    def test_operators(self):
        operators = [
            t.value for t in tokenize("a <= b >= c <> d != e || f") if t.type is TokenType.OPERATOR
        ]
        assert operators == ["<=", ">=", "<>", "!=", "||"]

    def test_punctuation(self):
        puncts = [
            t.value for t in tokenize("f(a, b.c);") if t.type is TokenType.PUNCTUATION
        ]
        assert puncts == ["(", ",", ".", ")", ";"]


class TestCommentsAndErrors:
    def test_line_comment_is_skipped(self):
        assert values("SELECT 1 -- trailing comment\n+ 2") == ["SELECT", "1", "+", "2"]

    def test_block_comment_is_skipped(self):
        assert values("SELECT /* ignore me */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT #!")

    def test_empty_input_has_only_eof(self):
        tokens = tokenize("   ")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF
