"""Census: every module of ``src/repro`` is reached by something other
than its own tests.

A module is reached when a file outside ``tests/`` (under ``src/``,
``benchmarks/`` or ``examples/``) imports it.  Package ``__init__``
re-exports are not callers: a name imported from a package counts for
the module that defines it, and an ``__init__``'s own imports count only
when it uses the name in its body, or when it is a registry (it imports
its submodules as modules, for their side effects, as
``repro.analysis.rules`` does) and a reached module imports the package.
Package ``__init__`` and ``__main__`` files are not census subjects.

A module nothing reaches is deleted, or listed in :data:`ALLOWLIST`
with the ROADMAP item that will reach it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTERS = ("src", "benchmarks", "examples")

#: unreached on purpose: module -> the ROADMAP item that will reach it
ALLOWLIST = {
    "repro.picmi": "ROADMAP 1: snippet 1's headline deck runs through picmi",
    "repro.diagnostics.energy": "ROADMAP 6: the health.energy_drift gauge",
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _src_modules():
    """Dotted name -> path of every file under ``src/``."""
    return {_module_name(p): p for p in sorted(SRC.rglob("*.py"))}


def _bindings(path, package):
    """``(bound name, module, imported name or None)`` per imported name
    of one file; ``package`` resolves relative imports."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, alias.name, None))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                out.append((alias.asname or alias.name, base, alias.name))
    return out


class Census:
    def __init__(self):
        self.modules = _src_modules()
        self.packages = {
            name for name, p in self.modules.items() if p.name == "__init__.py"
        }
        self._init_bindings = {
            pkg: _bindings(self.modules[pkg], pkg) for pkg in self.packages
        }

    def targets(self, module, name):
        """The census modules one imported name reaches, and the package
        it imports whole (or None)."""
        if name is None or name == "*":
            whole = module if module in self.packages else None
            return {module}, whole
        sub = f"{module}.{name}"
        if sub in self.modules:
            return {sub}, sub if sub in self.packages else None
        if module in self.packages:
            # a re-exported name counts for the module that defines it
            for bound, origin, original in self._init_bindings[module]:
                if bound == name and origin != module:
                    return self.targets(origin, original)[0], None
            return set(), None
        return {module}, None

    def reached(self):
        direct, whole_by = set(), {}
        for top in IMPORTERS:
            for path in sorted((ROOT / top).rglob("*.py")):
                if path.name == "__init__.py":
                    continue
                importer = _module_name(path) if top == "src" else None
                package = importer.rpartition(".")[0] if importer else ""
                for _bound, module, name in _bindings(path, package):
                    hit, whole = self.targets(module, name)
                    direct |= hit
                    if whole is not None:
                        whole_by.setdefault(whole, set()).add(importer)
        reached = set(direct)
        for pkg in sorted(self.packages):
            reached |= self._used_in_body(pkg)
        changed = True
        while changed:  # registries imported by a reached module
            changed = False
            for pkg, importers in whole_by.items():
                if not any(i is None or i in reached for i in importers):
                    continue
                for _bound, module, name in self._init_bindings[pkg]:
                    sub = f"{module}.{name}"
                    if module == pkg and sub in self.modules and sub not in reached:
                        reached.add(sub)
                        changed = True
        return reached

    def _used_in_body(self, pkg):
        tree = ast.parse(self.modules[pkg].read_text())
        used = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        hits = set()
        for bound, module, name in self._init_bindings[pkg]:
            if bound in used:
                hits |= self.targets(module, name)[0]
        return hits

    def subjects(self):
        return {
            name for name, p in self.modules.items()
            if p.name not in ("__init__.py", "__main__.py")
        }


def test_every_module_is_reached_outside_its_tests():
    census = Census()
    unreached = sorted(census.subjects() - census.reached() - set(ALLOWLIST))
    assert not unreached, (
        "no file under src/, benchmarks/ or examples/ imports "
        f"{', '.join(unreached)}: delete it, or allowlist it here with the "
        "ROADMAP item that will reach it"
    )


def test_allowlist_names_only_unreached_modules():
    census = Census()
    stale = sorted(
        name for name in ALLOWLIST
        if name not in census.subjects() or name in census.reached()
    )
    assert not stale, f"allowlist entries to drop: {stale}"
