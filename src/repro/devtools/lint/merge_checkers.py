"""Store-merge purity: the monoid laws need machine help too.

``store-merge-purity``
    Streaming deltas and the ``repro merge`` CLI both rest on
    :meth:`~repro.store.base.SummaryStore.merge` being a *pure*
    commutative-monoid operation: same operands, same result, operands
    untouched.  The property tests sample that promise; this checker
    pins the three ways an implementation quietly breaks it:

    * **mutating an operand** — ``merge`` must build a fresh store;
      writing through ``self``/``other`` (or any parameter) aliases the
      result into its inputs and corrupts re-merges and retries;
    * **reading ``os.environ``** — merged counts must be a function of
      the operands, not of per-process configuration (workers and the
      parent would disagree);
    * **iterating a ``set``/``frozenset`` without ``sorted()``** — the
      merged store's *insertion order* is part of the bit-identical
      contract, so no step of a merge may depend on hash order.

    Roots are every project implementation of ``SummaryStore.merge``
    (base plus subclass overrides, via the whole-program model); the
    operand-mutation check applies to the implementations themselves,
    while the environ and set-order checks follow the call graph
    through the store package (helpers outside it — interner table
    rewrites, observability — are covered by their own rules).
    Genuinely sanctioned exceptions go in the lint baseline like any
    other finding.
"""

from __future__ import annotations

import ast
import dataclasses

from .callgraph import callgraph_for
from .engine import register
from .parallel_checkers import (
    _ExprTypes,
    _MUTATOR_METHODS,
    _ProjectChecker,
    _module_functions,
)
from .project import FunctionInfo, ProjectModel

__all__ = ["MergeAnalysis", "merge_analysis_for", "StoreMergePurityChecker"]


@dataclasses.dataclass
class MergeAnalysis:
    """Merge implementations and their store-package call closure."""

    #: idents of ``SummaryStore.merge`` implementations (operand-mutation
    #: check applies here).
    impls: set[str]
    #: reachable function ident -> merge-impl root, restricted to the
    #: store package(s) (environ / set-order checks apply here).
    closure: dict[str, str]


def _module_of(ident: str) -> str:
    return ident.partition(":")[0]


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def build_merge_analysis(project: ProjectModel) -> MergeAnalysis:
    graph = callgraph_for(project)
    impls: dict[str, None] = {}
    packages: set[str] = set()
    for module in project.modules.values():
        if "SummaryStore" not in module.classes:
            continue
        ident = f"{module.name}:SummaryStore"
        for fn in project.method_implementations(ident, "merge"):
            impls.setdefault(fn.ident, None)
        name = module.name
        packages.add(name.rsplit(".", 1)[0] if "." in name else name)
    reachable = graph.reachable(list(impls))
    closure = {
        ident: root
        for ident, root in reachable.items()
        if any(_in_package(_module_of(ident), pkg) for pkg in packages)
    }
    return MergeAnalysis(impls=set(impls), closure=closure)


def merge_analysis_for(project: ProjectModel) -> MergeAnalysis:
    analysis = project.analysis("merge-analysis", build_merge_analysis)
    assert isinstance(analysis, MergeAnalysis)
    return analysis


@register
class StoreMergePurityChecker(_ProjectChecker):
    rule = "store-merge-purity"
    description = (
        "SummaryStore.merge implementations must not mutate their "
        "operands, read os.environ, or iterate sets unsorted"
    )

    def check(self) -> None:
        merge_analysis = merge_analysis_for(self.project)
        if not merge_analysis.impls:
            return
        for function in _module_functions(self.module):
            if function.ident not in merge_analysis.closure:
                continue
            _MergeScan(
                self,
                function,
                check_operands=function.ident in merge_analysis.impls,
                root=merge_analysis.closure[function.ident],
            ).run()


class _MergeScan(ast.NodeVisitor):
    """Check one merge-reachable function body for monoid breakers."""

    def __init__(
        self,
        checker: StoreMergePurityChecker,
        function: FunctionInfo,
        check_operands: bool,
        root: str,
    ) -> None:
        self.checker = checker
        self.project = checker.project
        self.module = checker.module
        self.function = function
        self.check_operands = check_operands
        self.types = _ExprTypes(self.project, self.module, function)
        if function.ident == root:
            self.origin = "a merge implementation"
        else:
            module, _, qualname = root.partition(":")
            self.origin = f"merge implementation '{module}.{qualname}'"
        args = function.node.args
        self.params = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)

    def run(self) -> None:
        for stmt in self.function.node.body:
            self.visit(stmt)

    def _report(self, node: ast.AST, message: str) -> None:
        self.checker.report(
            node, f"{self.function.qualname!r} ({self.origin}) {message}"
        )

    # -- nested scopes: closures double-report; skip like _PurityScan --

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- operand mutation ----------------------------------------------

    def _param_root(self, expr: ast.expr) -> str | None:
        """The parameter a write through ``expr`` would reach, if any."""
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.params:
            return node.id
        return None

    def _flag_operand_write(self, node: ast.AST, param: str, how: str) -> None:
        self._report(
            node,
            f"{how} operand {param!r}; merge is a pure monoid operation "
            "— build and return a fresh store instead",
        )

    def _check_write_target(self, target: ast.expr) -> None:
        if not self.check_operands:
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            param = self._param_root(target)
            if param is not None:
                self._flag_operand_write(target, param, "writes through")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write_target(target)
        self.generic_visit(node)

    # -- calls: operand mutators + environment reads -------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.check_operands
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            param = self._param_root(func.value)
            if param is not None:
                self._flag_operand_write(
                    node, param, f"calls .{func.attr}() on"
                )
        resolved = self.project.resolve_expr(self.module, func)
        if resolved is not None and resolved.kind == "external":
            if resolved.target == "os.getenv":
                self._report(
                    node,
                    "calls os.getenv(); merged counts must be a function "
                    "of the operands, not the process environment",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self.project.resolve_expr(self.module, node)
        if resolved is not None and resolved.kind == "external":
            if resolved.target == "os.environ":
                self._report(
                    node,
                    "reads os.environ; merged counts must be a function "
                    "of the operands, not the process environment",
                )
        self.generic_visit(node)

    # -- unordered set iteration ---------------------------------------

    def _check_iteration(self, node: ast.AST, iterable: ast.expr) -> None:
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                return  # the endorsed spelling
        if self.types.is_set(iterable):
            self._report(
                node,
                "iterates a set/frozenset without sorted(); the merged "
                "store's insertion order is part of the bit-identical "
                "contract — wrap the iterable in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _check_generators(
        self, node: ast.AST, generators: list[ast.comprehension]
    ) -> None:
        for gen in generators:
            self._check_iteration(node, gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_generators(node, node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_generators(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_generators(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_generators(node, node.generators)
        self.generic_visit(node)
