"""No API without a caller, and no import without a use, in ``src/minkgeom``.

Every public module-level function and public method that no code of the
package references must appear in ``UNCALLED`` with the role that keeps it;
a name that gains a caller or leaves must leave the list too, so the list
stays exact.  A reference is a name, an attribute access or an imported
name anywhere in the package, so the match is by name alone: a method that
shares its name with an attribute read elsewhere looks called.
``MinkowskiNorm.grad`` had no caller and went unseen, because
``LevelGeometry.grad`` is read by name.  A reference made inside a function
of the same name does not count: ``ScaledNorm.rotated`` calls
``self.base.rotated``, which kept the four ``rotated`` unseen.

Every name an import binds in the package is read there, except on the
lines of an import statement marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minkgeom"

UNCALLED = {
    "calculus.custom_field": "library entry point",
    "calculus.reparametrized_field": "library entry point, the subject of the "
                                     "reparametrization relation",
    "calculus.divergence_fd": "oracle",
    "calculus.volume_constants": "BH/HT constants, demo 03",
    "duality.dual_norm": "hooked by the benchmark's tracer",
    "norms.MinkowskiNorm.legendre": "hooked by the benchmark's tracer",
    "isoparametric.sample_level": "hooked by the benchmark's tracer",
    "norms.MinkowskiNorm.rotated": "the rotation relation of ROADMAP item 3",
    "norms.EuclideanNorm.rotated": "the rotation relation of ROADMAP item 3",
    "norms.RandersNorm.rotated": "the rotation relation of ROADMAP item 3",
    "norms.ScaledNorm.rotated": "the rotation relation of ROADMAP item 3",
    "isoparametric.consistency_identities": "curvature/Laplacian cross-check, demo 05",
    "isoparametric.f_segment_flow": "demo 05",
    "randers.dual_subspace_condition_check": "the exactness condition of the base "
                                             "_subspace_dual",
    "randers.randers_isoparametric_residual": "the witness system at a point, demo 06; the "
                                              "verify witness reads its terms",
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _referenced(tree: ast.AST, inside: frozenset = frozenset()) -> set:
    """The names, attributes and imported names of ``tree``, but not one used
    inside a function of its own name (``inside`` names those enclosing it)."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {tree.name}
    own = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(tree))
    found = {getattr(tree, own)} - inside if own else set()
    return found.union(*(_referenced(child, inside) for child in ast.iter_child_nodes(tree)))


def uncalled(modules: dict) -> set:
    """The public functions and methods that no module of ``modules`` references."""
    referenced = set().union(*map(_referenced, modules.values()))
    return {qual for module, tree in modules.items()
            for qual, name in _public_definitions(module, tree) if name not in referenced}


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds and the module never reads;
    the names of ``__all__`` count as read."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            read |= {elt.value for elt in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                found.append((node.lineno, bound))
    return found


def test_every_uncalled_public_name_has_a_role():
    assert uncalled(_modules()) == set(UNCALLED)


def test_the_caller_guard_sees_a_new_uncalled_name():
    source = ("def helper():\n    pass\n\n\nclass A:\n    def _private(self):\n"
              "        return helper()\n\n    def lonely(self):\n        pass\n")
    assert uncalled({"scratch": ast.parse(source)}) == {"scratch.A.lonely"}


def test_the_caller_guard_does_not_count_a_call_of_a_namesake():
    # a method that calls the method of its own name on another object, or
    # recurses, is no caller of it; a reference from another function is
    source = ("class A:\n    def turned(self, q):\n        return self.base.turned(q)\n\n"
              "    def walk(self):\n        return [walk(c) for c in self.children]\n\n"
              "    def spun(self):\n        return self.base.spun()\n\n"
              "    def use(self):\n        return self.spun()\n")
    assert uncalled({"scratch": ast.parse(source)}) == {"scratch.A.turned", "scratch.A.walk",
                                                        "scratch.A.use"}


def test_every_import_is_used():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def test_the_import_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n\nimport math\nimport os.path\n"
              "from x import (a,\n    b)\nfrom y import c  # noqa: F401\n\n"
              "__all__ = ['a']\n\n\ndef f():\n    return math.pi\n")
    assert unused_imports(source) == [(4, "os"), (5, "b")]
