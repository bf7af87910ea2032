"""Every ``src/repro/`` module is reached from a real entry point.

A static import walk from ``repro.cli`` (and ``python -m repro``), every
file under ``bench/``, ``benchmarks/`` and ``examples/``, the module
names those files spell as strings (the ``bench/simload.py`` wrap
targets) and ``importlib.import_module("<constant>")`` calls.  A package
``__init__`` reaches a name it re-exports (one listed in its
``__all__``) only when a caller imports that name, directly or as an
attribute of the package.  A module no root reaches is code that only
tests keep alive.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("repro.__main__", "repro.cli")
ROOT_DIRS = ("bench", "benchmarks", "examples")


def unreached_modules(repo):
    src = repo / "src"
    files = {".".join(p.relative_to(src).with_suffix("").parts)
             .removesuffix(".__init__"): p for p in src.glob("repro/**/*.py")}
    is_pkg = {mod: path.name == "__init__.py" for mod, path in files.items()}
    reached, requested = set(), set()

    def base(node, mod):
        if not node.level:
            return node.module
        parts = mod.split(".")
        parts = parts[:len(parts) + is_pkg.get(mod, False) - node.level]
        return ".".join(parts + [node.module] * bool(node.module))

    def reach(mod, name=None):
        if mod not in files:
            return
        parts = mod.split(".")
        for i in range(1, len(parts)):
            reach(".".join(parts[:i]))
        if name is not None and is_pkg[mod] and (mod, name) not in requested:
            requested.add((mod, name))
            reach(f"{mod}.{name}")
            for node in ast.parse(files[mod].read_text()).body:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            reach(base(node, mod), alias.name)
        if mod not in reached:
            reached.add(mod)
            walk(files[mod], mod)

    def walk(path, mod, is_root=False):
        tree = ast.parse(path.read_text())
        public = next((ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign) and is_pkg.get(mod)
                       and getattr(node.targets[0], "id", "") == "__all__"), ())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
                    top = alias.name.split(".")[0]
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                source = base(node, mod)
                if node in tree.body and {a.asname or a.name
                                          for a in node.names} <= set(public):
                    continue  # a re-export, followed when a caller asks
                reach(source)
                for alias in node.names:
                    reach(source, alias.name)
                    if f"{source}.{alias.name}" in files:
                        bound[alias.asname or alias.name] = f"{source}.{alias.name}"
            elif isinstance(node, ast.Call) and node.args and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) == "import_module":
                reach(getattr(node.args[0], "value", None))
            elif is_root and isinstance(node, ast.Constant) and node.value in files:
                reach(node.value)
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                owner = bound[node.id]
                for attr in chain:
                    reach(owner, attr)
                    owner = f"{owner}.{attr}"

    for root in ROOTS:
        reach(root)
    for directory in ROOT_DIRS:
        for path in sorted((repo / directory).glob("**/*.py")):
            walk(path, "", is_root=True)
    return sorted(set(files) - reached)


def test_every_module_is_reached_from_an_entry_point():
    assert unreached_modules(REPO) == [], (
        "src/repro/ modules that only tests reach: delete them, or call "
        "them from the CLI, bench/, benchmarks/ or examples/")


def test_gate_catches_a_module_only_a_test_imports(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/__main__.py": "from .cli import main\n",
        "src/repro/cli.py": "from .pkg import used\nimport importlib\n"
                            "importlib.import_module('repro.loaded')\n",
        "src/repro/loaded.py": "",
        "src/repro/pkg/__init__.py": "from .live import used\n"
                                     "from .stale import unused\n"
                                     "__all__ = ['used', 'unused']\n",
        "src/repro/pkg/live.py": "used = 1\n",
        "src/repro/pkg/stale.py": "unused = 1\n",
        "src/repro/_dead.py": "",
        "tests/test_dead.py": "import repro._dead\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    for directory in ROOT_DIRS:
        (tmp_path / directory).mkdir()
    assert unreached_modules(tmp_path) == ["repro._dead", "repro.pkg.stale"]
