"""Recursive-descent parser for the Armada language (Figure 7 grammar).

Produces the AST of :mod:`repro.lang.asts`.  The parser accepts both the
paper's brace-light recipe syntax (``tso_elim best_len "pred"``) and an
optional-semicolon variant.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: Recipe item names the parser recognizes as starting a new item.
RECIPE_DIRECTIVES = frozenset(
    {
        "weakening", "nondet_weakening", "tso_elim", "reduction",
        "assume_intro", "rely_guarantee", "combining",
        "var_intro", "var_hiding",
        "use_regions", "use_address_invariant",
        "invariant", "lemma", "witness", "relation",
    }
)

#: Binary operator precedence levels, lowest binding first.  Operators
#: on one level group left.
_BINARY_LEVELS: list[tuple[str, ...]] = [
    ("==>", "<=="),
    ("||",),
    ("&&",),
    ("==", "!=", "in"),
    ("<", "<=", ">", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Binary operator -> its index in :data:`_BINARY_LEVELS`.
_BINARY_PRECEDENCE: dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}

#: The deepest nesting the parser accepts.  A statement, an expression,
#: a prefix operator and each operator of a binary chain (which nests
#: left) go one level deeper.  Every later pass recurses over the tree,
#: so deeper input is a syntax error rather than a stack overflow.
MAX_NESTING = 100


class Parser:
    """Parses a token stream into an :class:`repro.lang.asts.Program`."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # token helpers

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self._tokens[self._pos]  # never past the EOF token
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _check_keyword(self, word: str) -> bool:
        return self._peek().is_keyword(word)

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        if not self._check_punct(text):
            raise ParseError(
                f"expected {text!r}, found {self._peek()!s}", self._peek().loc
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise ParseError(
                f"expected {word!r}, found {self._peek()!s}", self._peek().loc
            )
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token!s}", token.loc)
        return self._advance()

    def _nest(self) -> None:
        """Go one level deeper, failing past :data:`MAX_NESTING`; the
        caller undoes it with ``self._depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise _too_deep(self._peek())

    # ------------------------------------------------------------------
    # top level

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._peek().kind is not TokenKind.EOF:
            if self._check_keyword("level"):
                program.levels.append(self._parse_level())
            elif self._check_keyword("proof"):
                program.proofs.append(self._parse_proof())
            else:
                raise ParseError(
                    f"expected 'level' or 'proof', found {self._peek()!s}",
                    self._peek().loc,
                )
        return program

    def _parse_level(self) -> ast.LevelDecl:
        loc = self._expect_keyword("level").loc
        name = self._expect_ident().text
        level = ast.LevelDecl(name=name, loc=loc)
        self._expect_punct("{")
        while not self._accept_punct("}"):
            self._parse_level_decl(level)
        return level

    def _parse_level_decl(self, level: ast.LevelDecl) -> None:
        token = self._peek()
        if token.is_keyword("struct"):
            level.structs.append(self._parse_struct())
        elif token.is_keyword("var") or token.is_keyword("ghost"):
            level.globals.append(self._parse_global_var())
        else:
            level.methods.append(self._parse_method())

    def _parse_struct(self) -> ast.StructDecl:
        loc = self._expect_keyword("struct").loc
        name = self._expect_ident().text
        self._expect_punct("{")
        fields: list[ty.StructField] = []
        while not self._accept_punct("}"):
            self._expect_keyword("var")
            fname = self._expect_ident().text
            self._expect_punct(":")
            ftype = self.parse_type()
            self._expect_punct(";")
            fields.append(ty.StructField(fname, ftype))
        decl = ast.StructDecl(name=name, loc=loc)
        decl.struct_type = ty.StructType(name, tuple(fields))
        return decl

    def _parse_global_var(self) -> ast.GlobalVarDecl:
        ghost = self._accept_keyword("ghost")
        loc = self._expect_keyword("var").loc
        name = self._expect_ident().text
        self._expect_punct(":")
        var_type = self.parse_type()
        init = None
        if self._accept_punct(":="):
            init = self.parse_expr()
        self._expect_punct(";")
        return ast.GlobalVarDecl(name, var_type, init, ghost, loc)

    def _parse_method(self) -> ast.MethodDecl:
        loc = self._peek().loc
        self._accept_keyword("method")
        is_extern = False
        if self._accept_punct("{:"):
            attr = self._expect_keyword("extern")
            assert attr.text == "extern"
            self._expect_punct("}")
            is_extern = True
        # C-style: return type then name.  `void` is a keyword type.  In
        # Dafny style (`method name(...)`) the return type is omitted and
        # defaults to void; we detect that by `name(` directly following.
        if self._peek().kind is TokenKind.IDENT and self._peek(1).is_punct("("):
            return_type: ty.Type = ty.VOID
        else:
            return_type = self.parse_type()
        name = self._expect_ident().text
        self._expect_punct("(")
        params: list[ast.Param] = []
        while not self._accept_punct(")"):
            if params:
                self._expect_punct(",")
            ptok = self._expect_ident()
            self._expect_punct(":")
            ptype = self.parse_type()
            params.append(ast.Param(ptok.text, ptype, ptok.loc))
        spec = ast.MethodSpec()
        while True:
            if self._check_keyword("requires"):
                self._advance()
                spec.requires.append(self.parse_expr())
            elif self._check_keyword("ensures"):
                self._advance()
                spec.ensures.append(self.parse_expr())
            elif self._check_keyword("modifies"):
                self._advance()
                spec.modifies.append(self.parse_expr())
            elif self._check_keyword("reads"):
                self._advance()
                spec.reads.append(self.parse_expr())
            else:
                break
        body = None
        if not self._accept_punct(";"):
            body = self._parse_block()
        return ast.MethodDecl(
            name, params, return_type, body, spec, is_extern, loc
        )

    # ------------------------------------------------------------------
    # proofs / recipes

    def _parse_proof(self) -> ast.ProofDecl:
        loc = self._expect_keyword("proof").loc
        name = self._expect_ident().text
        self._expect_punct("{")
        self._expect_keyword("refinement")
        low = self._expect_ident().text
        high = self._expect_ident().text
        self._accept_punct(";")
        items: list[ast.RecipeItem] = []
        while not self._accept_punct("}"):
            items.append(self._parse_recipe_item())
        return ast.ProofDecl(name, low, high, items, loc)

    def _parse_recipe_item(self) -> ast.RecipeItem:
        token = self._peek()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise ParseError(f"expected recipe item, found {token!s}", token.loc)
        self._advance()
        item = ast.RecipeItem(token.text, loc=token.loc)
        while True:
            arg = self._peek()
            if arg.is_punct(";"):
                self._advance()
                return item
            if arg.is_punct("}") or arg.kind is TokenKind.EOF:
                return item
            if arg.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
                if arg.text in RECIPE_DIRECTIVES:
                    return item
                self._advance()
                item.args.append(arg.text)
            elif arg.kind in (TokenKind.STRINGLIT, TokenKind.INTLIT):
                self._advance()
                item.args.append(arg.text)
            else:
                raise ParseError(
                    f"unexpected token {arg!s} in recipe item", arg.loc
                )

    # ------------------------------------------------------------------
    # types

    def parse_type(self) -> ty.Type:
        base = self._parse_type_atom()
        # Array suffixes: T[N] (possibly nested: T[N][M] parses left-to-right).
        while self._check_punct("["):
            self._advance()
            size_tok = self._peek()
            if size_tok.kind is not TokenKind.INTLIT:
                raise ParseError("array size must be an integer literal",
                                 size_tok.loc)
            self._advance()
            self._expect_punct("]")
            base = ty.ArrayType(base, int(size_tok.text, 0))
        return base

    def _parse_type_atom(self) -> ty.Type:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.text in ty.PRIMITIVES:
            self._advance()
            return ty.PRIMITIVES[token.text]
        if token.is_keyword("ptr"):
            self._advance()
            self._expect_punct("<")
            element = self.parse_type()
            self._close_angle()
            return ty.PtrType(element)
        if token.is_keyword("seq"):
            self._advance()
            self._expect_punct("<")
            element = self.parse_type()
            self._close_angle()
            return ty.SeqType(element)
        if token.is_keyword("set"):
            self._advance()
            self._expect_punct("<")
            element = self.parse_type()
            self._close_angle()
            return ty.SetType(element)
        if token.is_keyword("map"):
            self._advance()
            self._expect_punct("<")
            key = self.parse_type()
            self._expect_punct(",")
            value = self.parse_type()
            self._close_angle()
            return ty.MapType(key, value)
        if token.is_keyword("option"):
            self._advance()
            self._expect_punct("<")
            element = self.parse_type()
            self._close_angle()
            return ty.OptionType(element)
        if token.kind is TokenKind.IDENT:
            # A struct name; resolved to its definition later.
            self._advance()
            return ty.StructType(token.text)
        raise ParseError(f"expected a type, found {token!s}", token.loc)

    def _close_angle(self) -> None:
        """Consume ``>``, splitting ``>>`` left over from nested generics."""
        token = self._peek()
        if token.is_punct(">"):
            self._advance()
            return
        if token.is_punct(">>"):
            # Replace with a single '>' for the outer closer.
            self._tokens[self._pos] = Token(TokenKind.PUNCT, ">", token.loc)
            return
        raise ParseError(f"expected '>', found {token!s}", token.loc)

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> ast.Block:
        loc = self._expect_punct("{").loc
        block = ast.Block(loc=loc)
        while not self._accept_punct("}"):
            block.stmts.append(self.parse_stmt())
        return block

    def parse_stmt(self) -> ast.Stmt:
        self._nest()
        stmt = self._parse_stmt()
        self._depth -= 1
        return stmt

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        if token.is_keyword("var") or token.is_keyword("ghost"):
            return self._parse_var_decl_stmt()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.BreakStmt(loc=token.loc)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.ContinueStmt(loc=token.loc)
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self.parse_expr()
            self._expect_punct(";")
            return ast.ReturnStmt(value, loc=token.loc)
        if token.is_keyword("assert"):
            self._advance()
            cond = self.parse_expr()
            self._expect_punct(";")
            return ast.AssertStmt(cond, loc=token.loc)
        if token.is_keyword("assume"):
            self._advance()
            cond = self.parse_expr()
            self._expect_punct(";")
            return ast.AssumeStmt(cond, loc=token.loc)
        if token.is_keyword("somehow"):
            return self._parse_somehow()
        if token.is_keyword("dealloc"):
            self._advance()
            ptr = self.parse_expr()
            self._expect_punct(";")
            return ast.DeallocStmt(ptr, loc=token.loc)
        if token.is_keyword("join"):
            self._advance()
            thread = self.parse_expr()
            self._expect_punct(";")
            return ast.JoinStmt(thread, loc=token.loc)
        if token.is_keyword("label"):
            self._advance()
            name = self._expect_ident().text
            self._expect_punct(":")
            inner = self.parse_stmt()
            return ast.LabelStmt(name, inner, loc=token.loc)
        if token.is_keyword("explicit_yield"):
            self._advance()
            return ast.ExplicitYieldBlock(self._parse_block(), loc=token.loc)
        if token.is_keyword("yield"):
            self._advance()
            self._expect_punct(";")
            return ast.YieldStmt(loc=token.loc)
        if token.is_keyword("atomic"):
            self._advance()
            return ast.AtomicBlock(self._parse_block(), loc=token.loc)
        return self._parse_assign_or_call()

    def _parse_var_decl_stmt(self) -> ast.Stmt:
        ghost = self._accept_keyword("ghost")
        loc = self._expect_keyword("var").loc
        # Support multiple declarations: var i:int32 := 0, s:Solution;
        decls: list[ast.VarDeclStmt] = []
        while True:
            name = self._expect_ident().text
            self._expect_punct(":")
            var_type = self.parse_type()
            init = None
            if self._accept_punct(":="):
                init = self._parse_rhs()
            decls.append(ast.VarDeclStmt(name, var_type, init, ghost, loc=loc))
            if self._accept_punct(";"):
                break
            self._expect_punct(",")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(list(decls), loc=loc)

    def _parse_if(self) -> ast.IfStmt:
        loc = self._expect_keyword("if").loc
        cond = self._parse_guard()
        then = self._parse_block()
        els = None
        if self._accept_keyword("else"):
            if self._check_keyword("if"):
                self._nest()
                els = ast.Block([self._parse_if()], loc=self._peek().loc)
                self._depth -= 1
            else:
                els = self._parse_block()
        return ast.IfStmt(cond, then, els, loc=loc)

    def _parse_while(self) -> ast.WhileStmt:
        loc = self._expect_keyword("while").loc
        cond = self._parse_guard()
        invariants: list[ast.Expr] = []
        while self._accept_keyword("invariant"):
            invariants.append(self.parse_expr())
        body = self._parse_block()
        return ast.WhileStmt(cond, body, invariants, loc=loc)

    def _parse_guard(self) -> ast.Expr:
        """Parse an if/while guard: parenthesized or bare expression."""
        return self.parse_expr()

    def _parse_somehow(self) -> ast.SomehowStmt:
        loc = self._expect_keyword("somehow").loc
        spec = ast.SomehowSpec()
        while True:
            if self._accept_keyword("requires"):
                spec.requires.append(self.parse_expr())
            elif self._accept_keyword("modifies"):
                spec.modifies.append(self.parse_expr())
                while self._accept_punct(","):
                    spec.modifies.append(self.parse_expr())
            elif self._accept_keyword("ensures"):
                spec.ensures.append(self.parse_expr())
            else:
                break
        self._expect_punct(";")
        return ast.SomehowStmt(spec, loc=loc)

    def _parse_assign_or_call(self) -> ast.Stmt:
        loc = self._peek().loc
        first = self.parse_expr()
        if self._check_punct(";") and isinstance(first, ast.Call):
            # Bare call statement: method(args);
            self._advance()
            return ast.AssignStmt(
                [], [ast.CallRhs(first.func, first.args, loc=first.loc)],
                loc=loc,
            )
        lhss = [first]
        while self._accept_punct(","):
            lhss.append(self.parse_expr())
        tso_bypass = False
        if self._accept_punct("::="):
            tso_bypass = True
        else:
            self._expect_punct(":=")
        rhss = [self._parse_rhs()]
        while self._accept_punct(","):
            rhss.append(self._parse_rhs())
        self._expect_punct(";")
        return ast.AssignStmt(lhss, rhss, tso_bypass, loc=loc)

    def _parse_rhs(self) -> ast.Rhs:
        token = self._peek()
        if token.is_keyword("malloc"):
            self._advance()
            self._expect_punct("(")
            alloc_type = self.parse_type()
            self._expect_punct(")")
            return ast.MallocRhs(alloc_type, loc=token.loc)
        if token.is_keyword("calloc"):
            self._advance()
            self._expect_punct("(")
            alloc_type = self.parse_type()
            self._expect_punct(",")
            count = self.parse_expr()
            self._expect_punct(")")
            return ast.CallocRhs(alloc_type, count, loc=token.loc)
        if token.is_keyword("create_thread"):
            self._advance()
            method = self._expect_ident().text
            self._expect_punct("(")
            args: list[ast.Expr] = []
            while not self._accept_punct(")"):
                if args:
                    self._expect_punct(",")
                args.append(self.parse_expr())
            return ast.CreateThreadRhs(method, args, loc=token.loc)
        expr = self.parse_expr()
        if isinstance(expr, ast.Call):
            # Calls to methods are CallRhs; the resolver demotes calls to
            # pure ghost functions back to expression calls.
            return ast.CallRhs(expr.func, expr.args, loc=expr.loc)
        return ast.ExprRhs(expr, loc=expr.loc)

    # ------------------------------------------------------------------
    # expressions

    def parse_expr(self) -> ast.Expr:
        self._nest()
        if self._check_keyword("forall") or self._check_keyword("exists"):
            expr = self._parse_quantifier()
        elif self._check_keyword("if"):
            expr = self._parse_conditional()
        else:
            expr = self._parse_binary(0)
        self._depth -= 1
        return expr

    def _parse_quantifier(self) -> ast.Expr:
        token = self._advance()
        boundvar = self._expect_ident().text
        self._expect_punct(":")
        boundtype = self.parse_type()
        self._expect_punct(".")
        body = self.parse_expr()
        return ast.Quantifier(token.text, boundvar, boundtype, body,
                              loc=token.loc)

    def _parse_conditional(self) -> ast.Expr:
        loc = self._expect_keyword("if").loc
        cond = self._parse_binary(0)
        self._expect_keyword("then")
        then = self.parse_expr()
        self._expect_keyword("else")
        els = self.parse_expr()
        return ast.Conditional(cond, then, els, loc=loc)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: an operand, then every binary operator
        of level *min_level* or tighter with its right operand."""
        left = self._parse_unary()
        chain = 0
        while True:
            token = self._peek()
            level = (
                _BINARY_PRECEDENCE.get(token.text)
                if token.kind is TokenKind.PUNCT
                or token.kind is TokenKind.KEYWORD else None
            )
            if level is None or level < min_level:
                return left
            # The chain nests left: its first operand ends up deepest.
            chain += 1
            if self._depth + chain > MAX_NESTING:
                raise _too_deep(token)
            self._advance()
            right = self._parse_binary(level + 1)
            left = ast.Binary(token.text, left, right, loc=token.loc)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is not TokenKind.PUNCT or \
                token.text not in ("*", "&", "-", "!", "~"):
            return self._parse_postfix()
        if token.text == "*" and not self._starts_expr(self._peek(1)):
            # A `*` that cannot be a dereference is a nondeterministic
            # value.
            self._advance()
            return ast.Nondet(loc=token.loc)
        self._nest()
        self._advance()
        operand = self._parse_unary()
        self._depth -= 1
        if token.text == "*":
            return ast.Deref(operand, loc=token.loc)
        if token.text == "&":
            return ast.AddressOf(operand, loc=token.loc)
        return ast.Unary(token.text, operand, loc=token.loc)

    @staticmethod
    def _starts_expr(token: Token) -> bool:
        if token.kind in (TokenKind.IDENT, TokenKind.INTLIT):
            return True
        if token.kind is TokenKind.KEYWORD:
            return token.text in (
                "true", "false", "null", "old", "allocated",
                "allocated_array", "if",
            )
        return token.is_punct("(") or token.is_punct("&") or token.is_punct("*")

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("."):
                self._advance()
                fieldname = self._expect_ident().text
                expr = ast.FieldAccess(expr, fieldname, loc=token.loc)
            elif token.is_punct("["):
                self._advance()
                index = self.parse_expr()
                self._expect_punct("]")
                expr = ast.Index(expr, index, loc=token.loc)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INTLIT:
            self._advance()
            return ast.IntLit(int(token.text, 0), loc=token.loc)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLit(True, loc=token.loc)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLit(False, loc=token.loc)
        if token.is_keyword("null"):
            self._advance()
            return ast.NullLit(loc=token.loc)
        if token.is_keyword("old"):
            self._advance()
            self._expect_punct("(")
            operand = self.parse_expr()
            self._expect_punct(")")
            return ast.Old(operand, loc=token.loc)
        if token.is_keyword("allocated"):
            self._advance()
            self._expect_punct("(")
            operand = self.parse_expr()
            self._expect_punct(")")
            return ast.Allocated(operand, loc=token.loc)
        if token.is_keyword("allocated_array"):
            self._advance()
            self._expect_punct("(")
            operand = self.parse_expr()
            self._expect_punct(")")
            return ast.AllocatedArray(operand, loc=token.loc)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if token.text.startswith("$"):
                return ast.MetaVar(token.text, loc=token.loc)
            if self._check_punct("("):
                self._advance()
                args: list[ast.Expr] = []
                while not self._accept_punct(")"):
                    if args:
                        self._expect_punct(",")
                    args.append(self.parse_expr())
                return ast.Call(token.text, args, loc=token.loc)
            return ast.Var(token.text, loc=token.loc)
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr
        if token.is_punct("["):
            self._advance()
            elements: list[ast.Expr] = []
            while not self._accept_punct("]"):
                if elements:
                    self._expect_punct(",")
                elements.append(self.parse_expr())
            return ast.SeqLit(elements, loc=token.loc)
        if token.is_punct("{"):
            self._advance()
            elements = []
            while not self._accept_punct("}"):
                if elements:
                    self._expect_punct(",")
                elements.append(self.parse_expr())
            return ast.SetLit(elements, loc=token.loc)
        raise ParseError(f"expected expression, found {token!s}", token.loc)


def _too_deep(token: Token) -> ParseError:
    return ParseError(f"nested more than {MAX_NESTING} deep", token.loc)


def parse_program(source: str, filename: str = "<armada>") -> ast.Program:
    """Parse Armada source text into a :class:`Program`."""
    return Parser(tokenize(source, filename)).parse_program()


def parse_expression(source: str, filename: str = "<expr>") -> ast.Expr:
    """Parse a standalone expression (used for recipe predicates)."""
    parser = Parser(tokenize(source, filename))
    expr = parser.parse_expr()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(f"trailing input after expression: {trailing!s}",
                         trailing.loc)
    return expr
