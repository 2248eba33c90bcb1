"""Conservative call graph + executor submission-site discovery.

Built on the :class:`~repro.devtools.lint.project.ProjectModel`, this
module answers the question the parallel-determinism checkers hinge on:
*which functions can run inside a worker process?*  It finds every
``ProcessPoolExecutor``/``ThreadPoolExecutor`` construction and every
``.map(fn, ...)`` / ``.submit(fn, ...)`` call on a tracked executor,
resolves the submitted callables and pool initializers through the
symbol tables, and closes the set under a conservative call relation:

* plain calls ``f(...)`` resolve through the module symbol table and
  import aliases (including re-export chains);
* method calls resolve through ``self``, parameter/variable annotations,
  and module-level instances; dynamic dispatch is over-approximated by
  including every project subclass override of the resolved method;
* anything unresolvable contributes no edge (the checkers would rather
  miss an exotic call than drown the build in false positives).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

from .project import ClassInfo, FunctionInfo, ModuleInfo, ProjectModel, Resolved

__all__ = ["SubmissionSite", "CallGraph", "build_callgraph", "EXECUTOR_CLASSES"]

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Fully-qualified executor classes whose ``map``/``submit`` ship work
#: (and arguments) across a pickling process/thread boundary.
EXECUTOR_CLASSES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

_SUBMIT_METHODS = frozenset({"map", "submit", "apply_async", "map_async", "imap", "imap_unordered"})

#: Project functions that forward their first argument to a process
#: pool as the task callable (arg 2 carries the task payloads).  The
#: retry engine is the only member today: the batch fan-out submits
#: through :func:`repro.resilience.runner.run_chunks`, so a call to it
#: is a submission site — the submitted function is a worker root and
#: its tasks cross the pickle boundary — even though the literal
#: ``.submit()`` happens behind the :class:`~repro.parallel.pool.
#: PoolSupervisor` indirection.
TASK_RUNNERS = frozenset({"repro.resilience.runner:run_chunks"})


@dataclasses.dataclass
class SubmissionSite:
    """One place where work crosses an executor boundary."""

    kind: str  # "map" | "submit" | "initializer" | ...
    module: str
    #: the ``.map``/``.submit`` call (or the executor constructor for
    #: initializer sites), for location reporting.
    call: ast.Call
    #: enclosing function, if the site is inside one.
    enclosing: FunctionInfo | None
    #: submitted callable expression (first positional arg / kwarg value).
    func_expr: ast.expr | None
    #: resolved target of the submitted callable, if resolvable.
    target: FunctionInfo | None
    #: argument expressions that cross the boundary with the task
    #: (``submit`` args/kwargs, ``initargs`` elements).  ``map``
    #: iterables are consumed parent-side, so they are excluded.
    payload: list[ast.expr] = dataclasses.field(default_factory=list)
    #: fully-qualified executor class, when known (empty for attribute-
    #: annotated executors whose constructor was not seen).
    executor_target: str = ""

    @property
    def crosses_pickle_boundary(self) -> bool:
        """True unless the executor is known to be thread-based."""
        return "Thread" not in self.executor_target


class CallGraph:
    """Edges between project functions + the discovered submission sites."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self.edges: dict[str, set[str]] = {}
        self.sites: list[SubmissionSite] = []

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def callees(self, ident: str) -> set[str]:
        return self.edges.get(ident, set())

    def reachable(self, roots: Sequence[str]) -> dict[str, str]:
        """``function ident -> root ident that first reaches it`` (BFS)."""
        origin: dict[str, str] = {}
        queue: list[str] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.callees(current)):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin

    def worker_roots(self) -> list[str]:
        """Idents of functions submitted as tasks or pool initializers."""
        out: dict[str, None] = {}
        for site in self.sites:
            if site.target is not None:
                out.setdefault(site.target.ident, None)
        return list(out)

    def initializer_idents(self) -> set[str]:
        return {
            site.target.ident
            for site in self.sites
            if site.kind == "initializer" and site.target is not None
        }


def build_callgraph(project: ProjectModel) -> CallGraph:
    graph = CallGraph(project)
    for module in project.modules.values():
        for function in _all_functions(module):
            _FunctionScan(graph, module, function).run()
        # Module-level executor use (rare, but scripts do it).
        _FunctionScan(graph, module, None).run()
    return graph


def callgraph_for(project: ProjectModel) -> CallGraph:
    """Memoised access used by the checkers (one graph per model)."""
    graph = project.analysis("callgraph", build_callgraph)
    assert isinstance(graph, CallGraph)
    return graph


def _all_functions(module: ModuleInfo) -> Iterator[FunctionInfo]:
    yield from module.functions.values()
    for cls in module.classes.values():
        yield from cls.methods.values()


class _FunctionScan:
    """Collect edges + submission sites for one function (or module) body."""

    def __init__(
        self, graph: CallGraph, module: ModuleInfo, function: FunctionInfo | None
    ) -> None:
        self.graph = graph
        self.project = graph.project
        self.module = module
        self.function = function
        self.owner: ClassInfo | None = (
            module.classes.get(function.owner)
            if function is not None and function.owner is not None
            else None
        )
        #: local name -> project class the value is an instance of.
        self.local_classes: dict[str, ClassInfo] = {}
        #: local name -> executor class target it is bound to.
        self.executors: dict[str, str] = {}
        #: function-local import bindings (lazy imports inside bodies).
        self.local_imports: dict[str, Resolved] = {}

    # -- entry ---------------------------------------------------------

    def run(self) -> None:
        body = self._body()
        for stmt in body:
            self._seed_locals(stmt)
        for node in self._walk(body):
            if isinstance(node, ast.Call):
                self._call(node)

    def _body(self) -> list[ast.stmt]:
        if self.function is not None:
            self._seed_params(self.function.node)
            return list(self.function.node.body)
        return [
            stmt
            for stmt in self.module.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]

    def _walk(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        for stmt in body:
            yield from ast.walk(stmt)

    # -- local typing --------------------------------------------------

    def _seed_params(self, node: _FunctionNode) -> None:
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in params:
            if arg.annotation is None:
                continue
            cls = self.project.annotation_class(self.module, arg.annotation)
            if cls is not None:
                self.local_classes[arg.arg] = cls

    def _resolve(self, expr: ast.expr) -> Resolved | None:
        """Project resolution, with function-local imports layered on."""
        parts: list[str] = []
        current = expr
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name) and current.id in self.local_imports:
            resolved: Resolved | None = self.local_imports[current.id]
            for attr in reversed(parts):
                if resolved is None:
                    return None
                resolved = self.project.member(resolved, attr)
            return resolved
        return self.project.resolve_expr(self.module, expr)

    def _seed_locals(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                base = _local_import_base(node, self.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target_module = self.project.modules.get(base)
                    if target_module is not None:
                        resolved = self.project.resolve_name(target_module, alias.name)
                        if resolved is None and f"{base}.{alias.name}" in self.project.modules:
                            resolved = Resolved(kind="module", module=f"{base}.{alias.name}")
                    elif f"{base}.{alias.name}" in self.project.modules:
                        resolved = Resolved(kind="module", module=f"{base}.{alias.name}")
                    else:
                        resolved = Resolved(kind="external", target=f"{base}.{alias.name}")
                    if resolved is not None:
                        self.local_imports[bound] = resolved
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    dotted = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    if dotted in self.project.modules:
                        self.local_imports[bound] = Resolved(kind="module", module=dotted)
                    else:
                        self.local_imports[bound] = Resolved(kind="external", target=dotted)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._bind(target.id, node.value)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    ctor = self._executor_ctor_target(node.value)
                    if ctor is not None:
                        self.executors[f"self.{target.attr}"] = ctor
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                cls = self.project.annotation_class(self.module, node.annotation)
                if cls is not None:
                    self.local_classes[node.target.id] = cls
                if node.value is not None:
                    self._bind(node.target.id, node.value)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        item.optional_vars is not None
                        and isinstance(item.optional_vars, ast.Name)
                        and isinstance(item.context_expr, ast.Call)
                    ):
                        self._bind(item.optional_vars.id, item.context_expr)

    def _bind(self, name: str, value: ast.expr) -> None:
        ctor = self._executor_ctor_target(value)
        if ctor is not None:
            self.executors[name] = ctor
            return
        if isinstance(value, ast.Call):
            resolved = self._resolve(value.func)
            if resolved is not None and resolved.kind == "class":
                cls = self.project.get_class(resolved.ident)
                if cls is not None:
                    self.local_classes[name] = cls
            return
        resolved_value = self._resolve(value)
        if resolved_value is not None and resolved_value.kind == "variable":
            cls = self.project.variable_class(resolved_value)
            if cls is not None:
                self.local_classes[name] = cls

    def _executor_ctor_target(self, expr: ast.expr) -> str | None:
        if not isinstance(expr, ast.Call):
            return None
        resolved = self._resolve(expr.func)
        if (
            resolved is not None
            and resolved.kind == "external"
            and resolved.target in EXECUTOR_CLASSES
        ):
            return resolved.target
        return None

    def _executor_base_target(self, expr: ast.expr) -> str | None:
        """Executor class behind ``expr`` when it names a tracked pool."""
        if isinstance(expr, ast.Name):
            return self.executors.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            known = self.executors.get(f"self.{expr.attr}")
            if known is not None:
                return known
            if self.owner is not None:
                annotation = self.owner.attr_annotations.get(expr.attr)
                if annotation is not None:
                    heads = self.project.annotation_head(annotation)
                    if "ProcessPoolExecutor" in heads or "Pool" in heads:
                        return "concurrent.futures.ProcessPoolExecutor"
                    if "ThreadPoolExecutor" in heads:
                        return "concurrent.futures.ThreadPoolExecutor"
                value = self.owner.attr_values.get(expr.attr)
                if value is not None:
                    return self._executor_ctor_target(value)
        return None

    # -- calls ---------------------------------------------------------

    def _call(self, node: ast.Call) -> None:
        ctor_target = self._executor_ctor_target(node)
        if ctor_target is not None:
            self._initializer_site(node, ctor_target)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_METHODS:
            base_target = self._executor_base_target(func.value)
            if base_target is not None:
                self._submission_site(node, func.attr, base_target)
        self._task_runner_site(node)
        self._edge_for_call(node)

    def _initializer_site(self, node: ast.Call, executor_target: str) -> None:
        initializer: ast.expr | None = None
        payload: list[ast.expr] = []
        for kw in node.keywords:
            if kw.arg == "initializer":
                initializer = kw.value
            elif kw.arg == "initargs":
                if isinstance(kw.value, (ast.Tuple, ast.List)):
                    payload.extend(kw.value.elts)
                else:
                    payload.append(kw.value)
        if initializer is None and not payload:
            return
        target = self._resolve_callable(initializer) if initializer is not None else None
        self.graph.sites.append(
            SubmissionSite(
                kind="initializer",
                module=self.module.name,
                call=node,
                enclosing=self.function,
                func_expr=initializer,
                target=target,
                payload=payload,
                executor_target=executor_target,
            )
        )
        if target is not None and self.function is not None:
            self.graph.add_edge(self.function.ident, target.ident)

    def _submission_site(self, node: ast.Call, kind: str, executor_target: str) -> None:
        func_expr = node.args[0] if node.args else None
        payload: list[ast.expr] = []
        if kind != "map":
            payload.extend(node.args[1:])
            payload.extend(kw.value for kw in node.keywords if kw.arg not in (None,))
        target = self._resolve_callable(func_expr) if func_expr is not None else None
        self.graph.sites.append(
            SubmissionSite(
                kind=kind,
                module=self.module.name,
                call=node,
                enclosing=self.function,
                func_expr=func_expr,
                target=target,
                payload=payload,
                executor_target=executor_target,
            )
        )

    def _task_runner_site(self, node: ast.Call) -> None:
        """Calls to :data:`TASK_RUNNERS` ship ``args[0]`` to a worker."""
        resolved = self._resolve(node.func)
        if (
            resolved is None
            or resolved.kind != "function"
            or resolved.ident not in TASK_RUNNERS
        ):
            return
        func_expr = node.args[0] if node.args else None
        payload = list(node.args[1:])
        target = self._resolve_callable(func_expr) if func_expr is not None else None
        self.graph.sites.append(
            SubmissionSite(
                kind="submit",
                module=self.module.name,
                call=node,
                enclosing=self.function,
                func_expr=func_expr,
                target=target,
                payload=payload,
                executor_target="concurrent.futures.ProcessPoolExecutor",
            )
        )

    def _resolve_callable(self, expr: ast.expr) -> FunctionInfo | None:
        resolved = self._resolve(expr)
        if resolved is None:
            return None
        if resolved.kind == "function":
            return self.project.get_function(resolved.ident)
        return None

    def _edge_for_call(self, node: ast.Call) -> None:
        if self.function is None:
            return
        caller = self.function.ident
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.local_classes or func.id in self.executors:
                return
            resolved = self._resolve(func)
            self._edge_to(caller, resolved)
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and self.owner is not None:
                for impl in self.project.method_implementations(self.owner.ident, func.attr):
                    self.graph.add_edge(caller, impl.ident)
                return
            cls = self.local_classes.get(base.id)
            if cls is not None:
                for impl in self.project.method_implementations(cls.ident, func.attr):
                    self.graph.add_edge(caller, impl.ident)
                return
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and self.owner is not None
        ):
            attr_owner = self.project.class_member(self.owner.ident, base.attr)
            if attr_owner is not None and attr_owner.kind == "variable":
                cls = self.project.variable_class(attr_owner)
                if cls is not None:
                    for impl in self.project.method_implementations(cls.ident, func.attr):
                        self.graph.add_edge(caller, impl.ident)
                    return
        resolved = self._resolve(func)
        self._edge_to(caller, resolved)

    def _edge_to(self, caller: str, resolved: Resolved | None) -> None:
        if resolved is None:
            return
        if resolved.kind == "function":
            info = self.project.get_function(resolved.ident)
            if info is not None:
                self.graph.add_edge(caller, info.ident)
        elif resolved.kind == "class":
            cls = self.project.get_class(resolved.ident)
            if cls is not None:
                init = self.project.class_member(cls.ident, "__init__")
                if init is not None and init.kind == "function":
                    self.graph.add_edge(caller, init.ident)
        elif resolved.kind == "variable":
            # Calling a module-level variable: a callable instance or an
            # aliased function; resolve class -> __call__ conservatively.
            cls = self.project.variable_class(resolved)
            if cls is not None:
                call = self.project.class_member(cls.ident, "__call__")
                if call is not None and call.kind == "function":
                    self.graph.add_edge(caller, call.ident)


def _local_import_base(stmt: ast.ImportFrom, module: ModuleInfo) -> str | None:
    """Base module of a function-local ``from X import Y`` statement."""
    if stmt.level == 0:
        return stmt.module
    module_name = module.name
    package = module_name if module.is_package else module_name.rpartition(".")[0]
    parts = package.split(".") if package else ([module_name] if module_name else [])
    cut = stmt.level - 1
    if cut > len(parts):
        return None
    base_parts = parts[: len(parts) - cut] if cut else parts
    if stmt.module:
        base_parts = base_parts + stmt.module.split(".")
    return ".".join(base_parts) if base_parts else None
