"""Hot-path hygiene: the rules that keep serving code serving.

* ``HYG001`` - bare ``threading.Lock``/``threading.RLock`` construction
  outside :mod:`repro.concurrency`. Raw locks are invisible to the
  runtime lock-order sanitizer and carry no hierarchy level; use
  :class:`repro.concurrency.Mutex` (or :class:`~repro.concurrency.RWLock`)
  instead.
* ``HYG002`` - ``print`` in library code. The CLI surface
  (``repro.cli``, ``repro.__main__``) is the only place stdout belongs;
  everything else reports through return values or :mod:`repro.obs`.
* ``HYG003`` - mutable default arguments (a shared list/dict/set
  default aliases state across calls; the classic Python trap).
* ``HYG004`` - un-gated metrics work inside the ranking hot path.
  Inside ``search_cs``/``rank_rows``/``rank_cs_batch`` and the ranking
  kernel's helpers (:data:`HOT_FUNCTIONS`), every
  ``.inc(...)``/``.observe(...)``/``.set_gauge(...)`` call must sit
  under an ``if <registry>.enabled:`` guard so the disabled cost stays
  one branch (the PR 2 overhead bound depends on it).
* ``HYG005`` - ``except Exception`` (or a bare ``except``) outside the
  sanctioned failure boundaries. Swallowing arbitrary exceptions
  mid-stack hides injected faults, sanitizer violations and real bugs
  alike; broad catches belong only where containing arbitrary component
  failure *is the job* - the resilience layer's degradation ladder and
  the thread-boundary harnesses listed in
  :data:`BROAD_EXCEPT_BOUNDARIES`. A broad catch that re-raises
  unconditionally (``raise`` as the handler's last statement) is exempt
  anywhere: it observes failures, it does not swallow them.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.modules import SourceModule

__all__ = [
    "BROAD_EXCEPT_BOUNDARIES",
    "HOT_FUNCTIONS",
    "PRINT_ALLOWED_MODULES",
    "check_hygiene",
]

#: Modules allowed to call ``print`` (the CLI surface).
PRINT_ALLOWED_MODULES = {"repro.cli", "repro.__main__"}

#: Module prefixes where broad ``except Exception`` is sanctioned:
#: the resilience layer (containing arbitrary component failure is its
#: purpose), the concurrency executor and eval harnesses (reporting
#: worker-thread failures across a thread boundary), and the CLI
#: surface (turning any failure into an exit code).
BROAD_EXCEPT_BOUNDARIES = (
    "repro.resilience",
    "repro.concurrency.executor",
    "repro.eval",
    "repro.cli",
    "repro.__main__",
)

#: Function names treated as the ranking hot path for ``HYG004``: the
#: two algorithms, the batch driver, and the helpers of the vectorized
#: ``rank_rows`` kernel (:mod:`repro.query.rank`).
HOT_FUNCTIONS = {
    "search_cs",
    "rank_rows",
    "rank_cs_batch",
    "_score_matches",
    "_combine_each_row",
    "_tie_cut",
    "_build_ranked",
    "_decode_mask",
}

#: Metric-recording method names that must be gated on the hot path.
_METRIC_METHODS = {"inc", "observe", "set_gauge"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


def _is_bare_lock_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("Lock", "RLock"):
        return isinstance(func.value, ast.Name) and func.value.id == "threading"
    if isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
        # ``from threading import Lock`` style; the names are unique
        # enough in this codebase that a bare call is the real thing.
        return True
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        # An empty tuple or frozenset is fine; these literals are not.
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _in_broad_except_boundary(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in BROAD_EXCEPT_BOUNDARIES
    )


def _broad_except_label(handler: ast.ExceptHandler) -> str | None:
    """``"bare except"``/``"except Exception"``/... when the handler is
    broad, ``None`` when it names specific exception types."""
    if handler.type is None:
        return "bare except"
    caught = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for caught_type in caught:
        if isinstance(caught_type, ast.Name) and caught_type.id in (
            "Exception",
            "BaseException",
        ):
            return f"except {caught_type.id}"
    return None


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler unconditionally re-raises the original
    exception (its last statement is a bare ``raise``)."""
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


def _condition_mentions_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        for node in ast.walk(test)
    )


_COMPOUND_STMTS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _metric_calls_in(node: ast.AST) -> list[ast.Call]:
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in _METRIC_METHODS
    ]


def _gated_metric_calls(
    body: list[ast.stmt], gated: bool, out: list[tuple[ast.Call, bool]]
) -> None:
    """Collect metric-recording calls with their guard status.

    ``gated`` is True once we are lexically inside the body of an
    ``if <...>.enabled:`` test; calls in the guard expression itself
    or in ``else`` branches stay un-gated.
    """
    for statement in body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested def runs on its own schedule, not here
        if isinstance(statement, ast.If):
            out.extend((call, gated) for call in _metric_calls_in(statement.test))
            branch_gated = gated or _condition_mentions_enabled(statement.test)
            _gated_metric_calls(statement.body, branch_gated, out)
            _gated_metric_calls(statement.orelse, gated, out)
        elif isinstance(statement, _COMPOUND_STMTS):
            for expr in (
                getattr(statement, "test", None),
                getattr(statement, "iter", None),
                *(item.context_expr for item in getattr(statement, "items", [])),
            ):
                if expr is not None:
                    out.extend((call, gated) for call in _metric_calls_in(expr))
            for attr in ("body", "orelse", "finalbody"):
                _gated_metric_calls(getattr(statement, attr, []) or [], gated, out)
            for handler in getattr(statement, "handlers", []):
                _gated_metric_calls(handler.body, gated, out)
        else:
            out.extend((call, gated) for call in _metric_calls_in(statement))


def check_hygiene(modules: list[SourceModule]) -> list[Finding]:
    """Run the hygiene rules over the collected modules."""
    findings: list[Finding] = []
    for module in modules:
        in_concurrency = module.name.startswith("repro.concurrency")
        broad_except_ok = _in_broad_except_boundary(module.name)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                label = _broad_except_label(node)
                if label is not None and not broad_except_ok and not _reraises(node):
                    findings.append(
                        Finding(
                            rule="HYG005",
                            category="hygiene",
                            module=module.name,
                            path=str(module.path),
                            line=node.lineno,
                            message=(
                                f"{label} outside a sanctioned failure "
                                "boundary: catch the specific ReproError "
                                "subtype, or move the containment into "
                                "repro.resilience"
                            ),
                        )
                    )
            elif isinstance(node, ast.Call):
                if not in_concurrency and _is_bare_lock_call(node):
                    findings.append(
                        Finding(
                            rule="HYG001",
                            category="hygiene",
                            module=module.name,
                            path=str(module.path),
                            line=node.lineno,
                            message=(
                                "bare threading lock: use repro.concurrency."
                                "Mutex/RWLock so the lock carries a hierarchy "
                                "level and the sanitizer can see it"
                            ),
                        )
                    )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and module.name not in PRINT_ALLOWED_MODULES
                ):
                    findings.append(
                        Finding(
                            rule="HYG002",
                            category="hygiene",
                            module=module.name,
                            path=str(module.path),
                            line=node.lineno,
                            message=(
                                "print in library code: return strings or "
                                "record via repro.obs; stdout belongs to the "
                                "CLI surface only"
                            ),
                        )
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    default
                    for default in node.args.kw_defaults
                    if default is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        findings.append(
                            Finding(
                                rule="HYG003",
                                category="hygiene",
                                module=module.name,
                                path=str(module.path),
                                line=default.lineno,
                                message=(
                                    f"mutable default argument in "
                                    f"{node.name}(): defaults are evaluated "
                                    "once and shared across calls"
                                ),
                                function=node.name,
                            )
                        )
                if node.name in HOT_FUNCTIONS:
                    calls: list[tuple[ast.Call, bool]] = []
                    _gated_metric_calls(node.body, False, calls)
                    for call, gated in calls:
                        if not gated:
                            method = call.func.attr  # type: ignore[union-attr]
                            findings.append(
                                Finding(
                                    rule="HYG004",
                                    category="hygiene",
                                    module=module.name,
                                    path=str(module.path),
                                    line=call.lineno,
                                    message=(
                                        f"un-gated metrics call .{method}() "
                                        f"in hot path {node.name}(): wrap it "
                                        "in `if registry.enabled:` so the "
                                        "disabled cost stays one branch"
                                    ),
                                    function=node.name,
                                )
                            )
    return findings
