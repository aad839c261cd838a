"""src holds only what its entry points run.

Every function, class and method defined in ``src/fibertop`` must be
called from the package itself, from ``bench/`` or from ``scripts/``, or
be named in ``REASONED`` with the reason it stays.  Test-only routes
belong in the ``tests/*_reference.py`` oracles instead.  README's section
"Public names with no caller in the package" gives the same list.

The scan is by name, and only reads count: a module-level function or
class counts as called when its name is loaded, as a ``Name`` or an
``Attribute``, in src (``__init__.py``, which only re-exports, excepted),
in ``bench/`` or in ``scripts/``; a method or property counts only when
it is loaded as an ``Attribute`` there.  So an assignment such as
``self.k = k`` or a local variable of the same name does not hide a dead
definition.  The attribute of a ``"module:attr"`` string in
``bench/tracing.py``, whose traced passes look layers up that way, counts
too.  Dunder methods are skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fibertop"

FACTORY = "a factory of a standard space or map for library users"
REASONED = {
    "spaces.discrete": FACTORY,
    "spaces.indiscrete": FACTORY,
    "spaces.sierpinski": FACTORY,
    "spaces.chain": FACTORY,
    "spaces.identity_map": FACTORY,
    "spaces.constant_map": FACTORY,
    "spaces.FiniteSpace.relabel":
        "the relabelling that the orbit census of ROADMAP item 9 needs",
    "spaces.FiniteSpace.is_closed": "part of the public space API",
    "spaces.FiniteSpace.interior": "part of the public space API",
    "spaces.FiberedMap.image": "part of the public map API",
    "spaces.FiberedMap.fiber": "part of the public map API",
    "oscillation.RationalFunction.restrict": "part of the public function API",
    "urysohn_tietze.ExtensionResult.psis":
        "the paper's psi_k, the function each extension step subtracts",
    "urysohn_tietze.exact_extension_exists":
        "the public exact-extension decider, an independent route to "
        "extension existence",
    "normality.SeparationCertificate.valid_for":
        "the independent re-check of an are_f_separated certificate",
}


def _definitions() -> dict[str, tuple[str, bool]]:
    """Qualified name ("module.Class.method") -> (bare name, whether it is
    defined in a class body), for every function, class and method in src
    except the dunders."""
    out = {}

    def visit(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = prefix + child.name
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    out[f"{module}.{qual}"] = (
                        child.name, isinstance(node, ast.ClassDef))
                visit(child, module, qual + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def _loaded_names() -> tuple[set[str], set[str]]:
    """The names loaded as a ``Name`` and those loaded as an
    ``Attribute``."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    for target in re.findall(r'"fibertop\.\w+:([\w.]+)"', tracing):
        attrs.add(target.rsplit(".", 1)[-1])
    return names, attrs


def _uncalled() -> set[str]:
    names, attrs = _loaded_names()
    return {qual for qual, (name, in_class) in _definitions().items()
            if name not in attrs and (in_class or name not in names)}


def test_uncalled_definitions_are_the_reasoned_ones():
    assert _uncalled() == set(REASONED)


def test_stores_do_not_count_as_calls():
    # errors.CoherenceViolated stores self.k, and cli.build_parser has a
    # local sub: neither is a read of a method named k or sub
    names, attrs = _loaded_names()
    assert "k" not in attrs and "sub" not in attrs


def test_readme_lists_the_reasoned_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Public names with no caller in the package",
                           1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `([\w.]+)`", section, re.M))
    assert listed == set(REASONED)
