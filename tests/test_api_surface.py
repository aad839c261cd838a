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

The same holds for options: every parameter with a default, of a function,
a method or a class's ``__init__``, must be set by some call there, or be
named in ``UNSET_DEFAULTS`` with the reason it stays.  A call sets it when
the callee's name matches (the class name for ``__init__``) and it passes
the parameter by keyword, or passes enough positional arguments to reach
it; a ``*args`` or ``**kwargs`` in the call counts as reaching every
positional or every keyword parameter.  A default that no caller changes
is a constant, and belongs in the body or at module level.
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
    "oscillation.RationalFunction._make":
        "the NamedTuple hook that _replace calls, routed through the table check",
    "urysohn_tietze.ExtensionResult.psis":
        "the paper's psi_k, the function each extension step subtracts",
    "urysohn_tietze.exact_extension_exists":
        "the public exact-extension decider, an independent route to "
        "extension existence",
    "normality.SeparationCertificate.valid_for":
        "the independent re-check of an are_f_separated certificate",
}

UNSET_DEFAULTS = {
    "spaces.constant_map.target": FACTORY,
    "spaces.constant_map.at": FACTORY,
    "urysohn_tietze.sigma_separator_family.within":
        "the relative-closedness case of normal maps: separate closed sets "
        "of the preimage of an open W around y",
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


def _caller_files() -> list[Path]:
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    return files


def _loaded_names() -> tuple[set[str], set[str]]:
    """The names loaded as a ``Name`` and those loaded as an
    ``Attribute``."""
    names, attrs = set(), set()
    for path in _caller_files():
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


def _defaults() -> dict[str, tuple[str, int | None, str]]:
    """Qualified name ("module.function.parameter") -> (the name a call
    uses, the parameter's positional index in such a call or None for a
    keyword-only one, the parameter's name), for every parameter with a
    default in src."""
    out = {}

    def visit(node, module: str, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, args = child.name, child.args
                if name == "__init__":
                    name = cls
                elif name.startswith("__") and name.endswith("__"):
                    continue
                qual = f"{module}.{prefix}{child.name}."
                # a call on an instance or a class does not pass self
                shift = 0 if cls is None or any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list) else 1
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out[qual + arg.arg] = (name, i - shift, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out[qual + arg.arg] = (name, None, arg.arg)
                visit(child, module, f"{prefix}{child.name}.", None)
            else:
                visit(child, module, prefix, cls)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", None)
    return out


def _unset_defaults() -> set[str]:
    calls = {}
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, index: int | None, kw: str) -> bool:
        if any(k.arg in (kw, None) for k in call.keywords):
            return True
        return index is not None and (
            len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args))

    return {qual for qual, (name, index, kw) in _defaults().items()
            if not any(sets(call, index, kw) for call in calls.get(name, ()))}


def test_uncalled_definitions_are_the_reasoned_ones():
    assert _uncalled() == set(REASONED)


def test_unset_defaults_are_the_reasoned_ones():
    assert _unset_defaults() == set(UNSET_DEFAULTS)


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
