"""Every option of the library's config dataclasses has a caller that sets it.

An option that nothing sets has one value in use: it is a constant
with a dataclass field's cost (a per-use attribute read, a default to
keep in step, code paths only another value reaches).  The census
reads the sources, AST only.  A field of a ``*Config`` dataclass under
``src/`` is set by

* a keyword (or positional argument) in a call of its class, or of a
  builder that takes the class first (the CLI's ``_config``), or by a
  ``dataclasses.replace`` keyword, in ``src/``, ``bench/``,
  ``benchmarks/`` or ``scripts/``;
* a CLI flag that a row of ``cli.py``'s ``_ROWS`` table maps to it.

Tests and examples do not count.  A field without a setter must be in
:data:`UNSET_ALLOWED`, with its reason.
"""

import ast
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SETTER_DIRS = ("src", "bench", "benchmarks", "scripts")
CLI = "src/repro/cli.py"

_CALIBRATION = (
    "ROADMAP items 4(c) and 5 decide whether it becomes a rule or a "
    "calibrated constant"
)
#: Fields kept with one value in use, and why.
UNSET_ALLOWED = {
    ("PopulationConfig", name): _CALIBRATION
    for name in (
        "resolve_rate_toplist", "resolve_rate_czds", "quic_rate_toplist",
        "quic_rate_czds", "zone_density_scale", "stack_persistence_tiers",
    )
}


@lru_cache(maxsize=1)
def parsed_sources() -> dict[str, ast.Module]:
    """``{repo-relative path: module}`` of every setter directory's file
    (parsed once: copy before changing it)."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for directory in SETTER_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def config_fields(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """``{class name: field names}`` of the ``*Config`` dataclasses in src/."""
    classes = {}
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and _is_dataclass(node):
                classes[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ]
    return classes


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def call_setters(trees, classes) -> set[tuple[str, str]]:
    """The fields a call of their class, a builder or ``replace`` sets."""
    found = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            args = node.args
            if name not in classes and args and isinstance(args[0], ast.Name):
                if args[0].id in classes:  # _config(TrafficConfig, args, ...)
                    name, args = args[0].id, ()
            if name in classes:
                fields = classes[name]
                found.update((name, fields[index]) for index in range(min(len(args), len(fields))))
                found.update((name, kw.arg) for kw in node.keywords if kw.arg in fields)
            elif name == "replace":
                found.update(
                    (config, kw.arg)
                    for kw in node.keywords
                    for config, fields in classes.items()
                    if kw.arg in fields
                )
    return found


def cli_setters(tree: ast.Module, classes) -> set[tuple[str, str]]:
    """The fields a CLI flag of a ``_ROWS`` row sets (``_FIELD`` renames)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name) and node.value is not None:
                names[target.id] = node.value
    renames = ast.literal_eval(names["_FIELD"])

    def flags(node):
        if isinstance(node, ast.Constant):
            yield node.value
        elif isinstance(node, ast.Starred):
            yield from flags(names[node.value.id])
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                yield from flags(element)

    found = set()
    for row in names["_ROWS"].elts:
        given = dict(zip(("name", "help", "handler", "configs", "flags"), row.args))
        given.update((kw.arg, kw.value) for kw in row.keywords)
        configs = [element.id for element in getattr(given.get("configs"), "elts", ())]
        for flag in flags(given.get("flags", ast.Tuple(elts=[]))):
            dest = flag.lstrip("-").replace("-", "_")
            field = renames.get(dest, dest)
            found.update(
                (config, field) for config in configs if field in classes.get(config, ())
            )
    return found


def census(trees: dict[str, ast.Module]) -> tuple[dict[str, list[str]], set]:
    """``({class: fields}, {(class, field) set somewhere})``; modules
    outside the setter directories are not read."""
    trees = {path: tree for path, tree in trees.items() if path.split("/")[0] in SETTER_DIRS}
    classes = config_fields(trees)
    return classes, call_setters(trees, classes) | cli_setters(trees[CLI], classes)


def unset(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """Fields with no setter and no allowance, in declaration order."""
    classes, set_fields = census(trees)
    return [
        (config, field)
        for config, fields in classes.items()
        for field in fields
        if (config, field) not in set_fields and (config, field) not in UNSET_ALLOWED
    ]


class TestKnobCensus:
    def test_every_config_field_has_a_setter(self):
        classes, set_fields = census(parsed_sources())
        assert {
            "ConnectionConfig", "MonitorConfig", "ParallelScanConfig", "PopulationConfig",
            "ResilienceConfig", "ScanConfig", "ServiceConfig", "SpinDeploymentConfig",
            "TrafficConfig", "WindowConfig",
        } <= set(classes)
        assert unset(parsed_sources()) == []
        # An allowance names a field that exists and still has no setter.
        for config, field in UNSET_ALLOWED:
            assert field in classes[config] and (config, field) not in set_fields

    def test_a_new_field_without_a_setter_fails(self):
        trees = dict(parsed_sources())
        path = "src/repro/quic/connection.py"
        anchor = "    enable_vec: bool = False\n"
        text = (REPO_ROOT / path).read_text(encoding="utf-8")
        assert text.count(anchor) == 1
        trees[path] = ast.parse(text.replace(anchor, anchor + "    unused_knob: int = 3\n"))
        assert unset(trees) == [("ConnectionConfig", "unused_knob")]
        # A keyword in a test is no setter; one in bench/ is.
        trees["tests/test_knob.py"] = ast.parse("ConnectionConfig(unused_knob=4)")
        assert unset(trees) == [("ConnectionConfig", "unused_knob")]
        trees["bench/knob.py"] = ast.parse("ConnectionConfig(unused_knob=4)")
        assert unset(trees) == []
