"""Source hygiene: no unused imports, unreferenced definitions, unused
defaults or start-up weight, and a declared Python floor the source runs on.

Every name a library module imports is used in it, every function,
class and method it defines is referenced somewhere in the library or
the benchmark, and every defaulted parameter is passed by some call
there; code that only the tests call is dead weight.  No linter
ships with the project, so this walks each module's syntax tree with the
standard library.  `__init__.py` is skipped: its imports are the
package's public re-exports, and a re-export alone is not a use.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qramsey"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_detects_unused_import():
    tree = ast.parse("from os import path, sep\n"
                     "import json\n"
                     "def f(x: 'sep') -> None:\n"
                     "    return json.dumps(x)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"path"}


# -- unreferenced definitions ---------------------------------------------

PERFBENCH = SRC.parent.parent / "perfbench"
REFERENCE_FILES = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))


def definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level functions and classes, and their non-dunder methods."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    out[f"{node.name}.{item.name}"] = item.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read or bound, attribute accessed, or string constant.

    String constants count because the benchmark tracer names the
    functions it wraps by string.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced(defined: dict[str, int], used: set[str]) -> list[str]:
    return sorted(name for name in defined
                  if name.rpartition(".")[2] not in used)


def test_no_unreferenced_definitions():
    used = set()
    for path in REFERENCE_FILES:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8"),
                                           filename=str(path)))
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = definitions(tree)
        dead += [f"{path.name}:{defined[name]} {name}"
                 for name in unreferenced(defined, used)]
    assert not dead, ("defined but referenced nowhere in src/qramsey or "
                      f"perfbench: {', '.join(dead)}")


def test_detects_unreferenced_definition():
    tree = ast.parse("class A:\n"
                     "    def __init__(self): pass\n"
                     "    def used(self): pass\n"
                     "    def unused(self): pass\n"
                     "def f(): return A().used()\n"
                     "def g(): pass\n"
                     "def h(): pass\n"
                     "TARGETS = ['h']\n")
    assert unreferenced(definitions(tree), referenced_names(tree)) == \
        ["A.unused", "f", "g"]


# -- benchmark trace names ------------------------------------------------
#
# The benchmark tracer (perfbench/spans.py) wraps library functions and
# methods that it names as (layer, module, "attribute") tuples in its
# FUNCTIONS and METHODS lists.  A rename in the library would only show
# when a traced benchmark runs; here it fails the tests instead.

SPANS = PERFBENCH / "spans.py"


def traced_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(dotted owner, attribute) of every entry of FUNCTIONS and METHODS."""
    out = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("FUNCTIONS", "METHODS")):
            continue
        assert isinstance(node.value, ast.List)
        for entry in node.value.elts:
            _, owner, attr = entry.elts
            out.append((ast.unparse(owner), attr.value))
    return out


def resolve(owner: str, attr: str) -> bool:
    """Whether src/qramsey defines `attr` on the module or class `owner`."""
    module, _, cls = owner.partition(".")
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    body = tree.body
    if cls:
        found = [n for n in body if isinstance(n, ast.ClassDef) and n.name == cls]
        if not found:
            return False
        body = found[0].body
    return any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and n.name == attr for n in body)


def test_traced_names_resolve():
    names = traced_names(ast.parse(SPANS.read_text(encoding="utf-8")))
    assert len(names) >= 20  # the lists were found and read
    missing = [f"{owner}.{attr}" for owner, attr in names
               if not resolve(owner, attr)]
    assert not missing, ("perfbench/spans.py wraps names that src/qramsey "
                         f"no longer defines: {', '.join(missing)}")


def test_detects_unresolved_trace_name():
    tree = ast.parse("FUNCTIONS = [('space.span', space, 'span'),\n"
                     "             ('space.gone', space, 'mat_inv')]\n"
                     "METHODS = [('space.key', space.Subspace, 'key'),\n"
                     "           ('space.old', space.Subspace, '_reduce')]\n")
    names = traced_names(tree)
    assert names == [("space", "span"), ("space", "mat_inv"),
                     ("space.Subspace", "key"), ("space.Subspace", "_reduce")]
    assert [resolve(o, a) for o, a in names] == [True, False, True, False]


# -- the unchecked Subspace constructor -----------------------------------
#
# space._unchecked_subspace builds a Subspace without running its
# __init__ check.  That is sound only for the rows of _rref_patterns,
# which are checked once per pivot pattern (a flat's basepoint row among
# them), and only the full-space branch of iter_subspaces builds from
# those.  Any other reference could let an unchecked subspace out.

UNCHECKED = "_unchecked_subspace"


def references(node: ast.AST, name: str) -> list[ast.AST]:
    """Every read, attribute access or string constant naming `name`."""
    return [n for n in ast.walk(node)
            if (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            or (isinstance(n, ast.Constant) and n.value == name)]


def full_space_references(tree: ast.Module) -> list[ast.AST]:
    """The references to the unchecked constructor inside an `if is_full:`
    body of a top-level `iter_subspaces`."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "iter_subspaces":
            for branch in ast.walk(node):
                if (isinstance(branch, ast.If)
                        and isinstance(branch.test, ast.Name)
                        and branch.test.id == "is_full"):
                    for stmt in branch.body:
                        out += references(stmt, UNCHECKED)
    return out


def stray_references(tree: ast.Module, filename: str) -> list[int]:
    """Lines referencing the unchecked constructor anywhere but the
    full-space branches of space.iter_subspaces."""
    allowed = set(map(id, full_space_references(tree))) \
        if filename == "space.py" else set()
    return sorted(n.lineno for n in references(tree, UNCHECKED)
                  if id(n) not in allowed)


def test_unchecked_constructor_only_in_full_space_walks():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [f"{path.name}:{line}"
                  for line in stray_references(tree, path.name)]
    assert not stray, (f"{UNCHECKED} skips Subspace's check; referenced "
                       f"outside iter_subspaces' full-space branches: "
                       f"{', '.join(stray)}")
    # the one call, for both modes, so a rename cannot empty the check
    space_tree = ast.parse((SRC / "space.py").read_text(encoding="utf-8"))
    assert len(full_space_references(space_tree)) == 1


def test_detects_stray_unchecked_reference():
    tree = ast.parse("def iter_subspaces(ambient, k):\n"
                     "    if is_full:\n"
                     "        yield _unchecked_subspace(1)\n"
                     "    else:\n"
                     "        yield _unchecked_subspace(2)\n"
                     "def span(points):\n"
                     "    return space._unchecked_subspace(3)\n"
                     "MAKERS = ['_unchecked_subspace']\n")
    assert len(full_space_references(tree)) == 1
    assert stray_references(tree, "space.py") == [5, 7, 8]
    assert stray_references(tree, "arrow.py") == [3, 5, 7, 8]


# -- one walk over a pattern's row choices --------------------------------
#
# `count` counts the walk that `enumerate` lists: both take the product of
# each pivot pattern's row choices in space._full_walk, and the texts of
# keys and of `enumerate`'s lines are the product of the pattern's
# formatted options in space._pattern_texts.  A second product over the
# choices would be a second walk, and a second one over the texts a second
# formatter, each free to drift from the first.


def starred_products(tree: ast.Module, name: str) -> list[str | None]:
    """The top-level definition (None for module code) around each
    `product(*name)` call."""
    out = []
    for node in tree.body:
        where = getattr(node, "name", None)
        for call in ast.walk(node):
            if (isinstance(call, ast.Call)
                    and (getattr(call.func, "attr", None) == "product"
                         or getattr(call.func, "id", None) == "product")
                    and any(isinstance(a, ast.Starred)
                            and isinstance(a.value, ast.Name)
                            and a.value.id == name for a in call.args)):
                out.append(where)
    return out


def test_row_choices_are_walked_once():
    tree = ast.parse((SRC / "space.py").read_text(encoding="utf-8"))
    assert starred_products(tree, "choices") == ["_full_walk"]


def test_detects_a_second_walk():
    tree = ast.parse("def _full_walk(choices):\n"
                     "    return itertools.product(*choices)\n"
                     "def count(choices, texts):\n"
                     "    product(*texts)\n"
                     "    return sum(1 for _ in product(*choices))\n"
                     "ROWS = itertools.product(*choices)\n")
    assert starred_products(tree, "choices") == ["_full_walk", "count", None]


def test_walk_texts_are_formatted_once():
    tree = ast.parse((SRC / "space.py").read_text(encoding="utf-8"))
    assert starred_products(tree, "texts") == ["_pattern_texts"]


def test_detects_a_second_formatter():
    tree = ast.parse("def _pattern_texts(choices, texts):\n"
                     "    return map(fmt.__mod__, itertools.product(*texts))\n"
                     "def walk_texts(choices):\n"
                     "    texts = [list(map(_spaced_list, c)) for c in choices]\n"
                     "    lines = [fmt % t for t in product(*texts)]\n"
                     "    return sorted(itertools.product(*choices))\n"
                     "LINES = list(itertools.product(*texts))\n")
    assert starred_products(tree, "texts") == ["_pattern_texts", "walk_texts",
                                               None]


# -- one elimination engine -----------------------------------------------
#
# space._reduce_at_lead reduces a vector by echelon rows filed under their
# pivots.  `rref`'s forward pass files rows with it, and
# `Subspace._holds_row` tests a row with it, for `is_member` and
# `contains_subspace`; independence and basis completion read one `rref`.
# A third user would be a second elimination, free to drift from `rref`.

REDUCE = "_reduce_at_lead"
REDUCE_USERS = ["rref", "Subspace._holds_row"]


def reduction_users(tree: ast.Module) -> list[str | None]:
    """The definition around each reference to `_reduce_at_lead`: a
    top-level function's name, Class.method for a method, the class's
    name for its other statements, and None for module code."""
    out = []
    for node in tree.body:
        scopes = node.body if isinstance(node, ast.ClassDef) else [node]
        for stmt in scopes:
            name = getattr(stmt, "name", None)
            if isinstance(node, ast.ClassDef):
                name = f"{node.name}.{name}" if name else node.name
            out += [name for _ in references(stmt, REDUCE)]
    return out


def test_one_elimination_engine():
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        users += [f"{path.name}:{name}" for name in reduction_users(tree)]
    assert users == [f"space.py:{name}" for name in REDUCE_USERS]


def test_detects_a_second_elimination():
    tree = ast.parse("def rref(f, rows):\n"
                     "    return _reduce_at_lead(f, {}, rows[0])\n"
                     "class Subspace:\n"
                     "    def is_member(self, v):\n"
                     "        return _reduce_at_lead(self.field, {}, v)\n"
                     "class _RankTracker:\n"
                     "    def try_add(self, v):\n"
                     "        return space._reduce_at_lead(self.f, self.rows, v)\n"
                     "    reduce = _reduce_at_lead\n"
                     "def is_independent(f, mode, points):\n"
                     "    return all(map(_reduce_at_lead, points))\n"
                     "STEP = _reduce_at_lead\n")
    assert reduction_users(tree) == ["rref", "Subspace.is_member",
                                     "_RankTracker.try_add", "_RankTracker",
                                     "is_independent", None]


# -- one code path for both modes ------------------------------------------
#
# A flat is stored as the rows of its homogenized subspace, so spanning,
# containment, the walk's count and the image lookup read rows alone, in
# either mode.  A mode constant, a basepoint or an origin in one of these
# would be a second, affine path beside the vector one, free to drift
# from it.

MODE_FREE = {"space.py": ["stacked_images", "join", "Subspace.contains_subspace",
                          "count_walk"],
             "arrow.py": ["member_lookup", "_member_spans", "_free_space"]}
MODE_NAMES = ("AFFINE", "VECTOR", "basepoint", "origin")


def definition(tree: ast.Module, qualname: str):
    """The top-level function, or Class.method, named `qualname`, or None."""
    owner, _, name = qualname.rpartition(".")
    body = tree.body
    if owner:
        classes = [n for n in body if isinstance(n, ast.ClassDef) and n.name == owner]
        body = classes[0].body if classes else []
    found = [n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
             and n.name == name]
    return found[0] if found else None


def mode_names(node: ast.AST) -> list[str]:
    """`name (line n)` for every name read or bound, attribute accessed or
    parameter inside `node` that is one of MODE_NAMES, in line order."""
    out = []
    for n in ast.walk(node):
        name = (n.id if isinstance(n, ast.Name)
                else n.attr if isinstance(n, ast.Attribute)
                else n.arg if isinstance(n, ast.arg) else None)
        if name in MODE_NAMES:
            out.append((n.lineno, f"{name} (line {n.lineno})"))
    return [text for _, text in sorted(out)]


def test_rows_code_path_names_no_mode():
    found = []
    for filename, qualnames in MODE_FREE.items():
        tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
        for qualname in qualnames:
            node = definition(tree, qualname)
            # a rename cannot empty the check
            assert node is not None, f"{filename} no longer defines {qualname}"
            found += [f"{filename}:{qualname} {name}" for name in mode_names(node)]
    assert not found, ("a mode branch in the rows code path: "
                       f"{', '.join(found)}")


def test_detects_a_mode_branch():
    tree = ast.parse("def join(a, b):\n"
                     "    return rref(a.rows + b.rows)\n"
                     "class Subspace:\n"
                     "    def contains_subspace(self, other):\n"
                     "        if self.mode == AFFINE:\n"
                     "            return other.basepoint\n"
                     "def stacked_images(f, template, rows, origin):\n"
                     "    return 'origin'\n")
    assert mode_names(definition(tree, "join")) == []
    assert mode_names(definition(tree, "Subspace.contains_subspace")) == \
        ["AFFINE (line 5)", "basepoint (line 6)"]
    assert mode_names(definition(tree, "stacked_images")) == ["origin (line 7)"]
    assert definition(tree, "count_walk") is None
    assert definition(tree, "Subspace.join") is None


# -- one lookup of listed subspaces inside a space ------------------------
#
# arrow.member_lookup answers "which listed subspaces lie inside U" for the
# arrow families, the monochromatic scan, verify and extract, by carrying
# `space.subspace_templates` through U's basis map.  A second walk of the
# templates, or the point-index lookup it replaced, would be a second
# answer to the same question, free to drift from the first.

TEMPLATES = "subspace_templates"
SECOND_LOOKUPS = ("point_index", "_families")


def template_users(tree: ast.Module) -> list[str | None]:
    """The top-level definition (None for module code) around each
    reference to `subspace_templates`, its own definition aside."""
    out = []
    for node in tree.body:
        name = getattr(node, "name", None)
        out += [name for _ in references(node, TEMPLATES)]
    return out


def second_lookups(tree: ast.Module) -> list[str]:
    """The top-level definitions named like the retired point-index
    lookup."""
    return [name for name in definitions(tree) if name in SECOND_LOOKUPS]


def test_subspaces_inside_a_space_have_one_lookup():
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        users += [f"{path.name}:{name}" for name in template_users(tree)]
    # the lookup itself references the templates, so a rename cannot
    # empty the check
    assert users == ["arrow.py:member_lookup"]
    arrow_tree = ast.parse((SRC / "arrow.py").read_text(encoding="utf-8"))
    assert second_lookups(arrow_tree) == []


def test_detects_a_second_lookup():
    tree = ast.parse("def member_lookup(members, n):\n"
                     "    return subspace_templates(f, mode, n, 1)\n"
                     "def point_index(host, k_spaces):\n"
                     "    return {}\n"
                     "def _families(where, n_spaces):\n"
                     "    yield space.subspace_templates(f, mode, n, 1)\n"
                     "def subspace_templates(f, mode, rank, k):\n"
                     "    return []\n"
                     "NAMES = ['subspace_templates']\n")
    assert template_users(tree) == ["member_lookup", "_families", None]
    assert second_lookups(tree) == ["point_index", "_families"]


# -- copies by one orbit lookup -------------------------------------------
#
# Whether a space with the members inside it is a copy of a configuration
# is one lookup of its template set in arrow.copy_orbit: verify's walk,
# extract's final check and family_isomorphic all ask it.  The
# backtracking over ordered bases that it replaced, `isomorphism_images`
# under `ISO_RANK_CAP`, lives on only as the tests' oracle; back in the
# library it would be a second answer, free to drift from the first.

ORBIT = "copy_orbit"
ORBIT_CALLERS = ["arrow.py:family_isomorphic", "arrow.py:induced_host_verify",
                 "construction.py:extract_monochromatic_copy"]
RETIRED_SEARCH = ("isomorphism_images", "ISO_RANK_CAP")


def orbit_callers(tree: ast.Module) -> list[str | None]:
    """The top-level definition (None for module code) around each call
    of `copy_orbit`."""
    out = []
    for node in tree.body:
        name = getattr(node, "name", None)
        out += [name for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and ORBIT in (getattr(call.func, "id", None),
                              getattr(call.func, "attr", None))]
    return out


def retired_search(tree: ast.Module) -> list[int]:
    """Lines that define or reference the retired isomorphism search."""
    defined = [line for name, line in definitions(tree).items()
               if name in RETIRED_SEARCH]
    return sorted(defined + [n.lineno for name in RETIRED_SEARCH
                             for n in references(tree, name)])


def test_copies_are_decided_by_one_orbit_lookup():
    callers, retired = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.name}:{name}" for name in orbit_callers(tree)]
        retired += [f"{path.name}:{line}" for line in retired_search(tree)]
    assert sorted(callers) == ORBIT_CALLERS
    assert not retired, ("the backtracking isomorphism search is back in "
                         f"src/qramsey: {', '.join(retired)}")


def test_detects_a_second_copy_test():
    tree = ast.parse("ISO_RANK_CAP = 4\n"
                     "def family_isomorphic(a, b):\n"
                     "    return copy_orbit(a).get(b)\n"
                     "def isomorphism_images(config, ambient):\n"
                     "    return None\n"
                     "def verify(host):\n"
                     "    return arrow.copy_orbit(host) and isomorphism_images(host, 1)\n"
                     "ORBIT = copy_orbit(None)\n")
    assert orbit_callers(tree) == ["family_isomorphic", "verify", None]
    assert retired_search(tree) == [1, 4, 7]


# -- defaulted parameters that no call passes -----------------------------
#
# A parameter whose default every caller keeps is a knob no one turns; the
# default belongs in the body as a constant.  Calls are matched to
# definitions by name alone, so a call of any function or method of that
# name counts, and `Class(...)` counts as a call of `Class.__init__`.


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position among the call's positional
    arguments or None for keyword-only) of every parameter with a default,
    on top-level functions and on methods, where `__init__` takes its
    class's name and a non-static method's position skips `self`."""
    defs = [(node.name, node, 0) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = cls.name if item.name == "__init__" else item.name
                    defs.append((name, item, 0 if static else 1))
    out = []
    for name, node, skip in defs:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        out += [(name, a.arg, i - skip) for i, a in enumerate(positional)
                if i >= first]
        out += [(name, a.arg, None) for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                if d is not None]
    return out


def passed_arguments(tree: ast.Module) -> dict[str, tuple[int, set]]:
    """Callee name -> (most positional arguments of a call, keywords
    passed); a call with *args or **kwargs passes every parameter, which
    reads as infinitely many positional arguments and keyword "*"."""
    out: dict[str, tuple[int, set]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        count, keywords = out.get(name, (0, set()))
        if any(isinstance(a, ast.Starred) for a in node.args):
            count = float("inf")
        count = max(count, len(node.args))
        keywords |= {k.arg or "*" for k in node.keywords}
        out[name] = (count, keywords)
    return out


def unpassed(defaulted, passed) -> list[str]:
    out = []
    for name, param, position in defaulted:
        count, keywords = passed.get(name, (0, set()))
        if not ("*" in keywords or param in keywords
                or (position is not None and count > position)):
            out.append(f"{name}({param})")
    return sorted(out)


def test_every_default_is_passed_somewhere():
    passed: dict[str, tuple[int, set]] = {}
    for path in REFERENCE_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, (count, keywords) in passed_arguments(tree).items():
            old_count, old_keywords = passed.get(name, (0, set()))
            passed[name] = (max(count, old_count), keywords | old_keywords)
    never = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        never += [f"{path.name} {name}"
                  for name in unpassed(defaulted_parameters(tree), passed)]
    assert not never, ("defaulted parameters that no call in src/qramsey or "
                       f"perfbench passes: {', '.join(never)}")


def test_detects_unpassed_default():
    tree = ast.parse("class A:\n"
                     "    def __init__(self, x=1, y=2): pass\n"
                     "    def m(self, a, b=0, *, c=None, d=1): pass\n"
                     "    @staticmethod\n"
                     "    def s(a, b=0): pass\n"
                     "def f(a, b=1, c=2): pass\n"
                     "def g(a=1): pass\n"
                     "def h(a=1, b=2): pass\n"
                     "A(5)\n"
                     "A().m(1, c=3)\n"
                     "A.s(1, 2)\n"
                     "f(1, *rest)\n"
                     "h(**opts)\n")
    assert unpassed(defaulted_parameters(tree), passed_arguments(tree)) == \
        ["A(y)", "g(a)", "m(b)", "m(d)"]


# -- start-up imports ------------------------------------------------------
#
# Every qramsey command starts a fresh process, so every run pays
# `import qramsey`.  `dataclasses` pulls in inspect, ast, dis and tokenize,
# and a dataclass compiles its generated methods with exec when its class
# is made: together about a third of the import.  The records are
# namedtuples and hand-written classes instead, and no library module
# imports these modules.

HEAVY_IMPORTS = ("dataclasses", "typing", "inspect")


def heavy_imports(tree: ast.Module) -> list[str]:
    """`module (line n)` for every absolute import of a module in
    HEAVY_IMPORTS or of one of its submodules."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names
                if name.partition(".")[0] in HEAVY_IMPORTS]
    return out


def test_no_heavy_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}: {name}" for name in heavy_imports(tree)]
    assert not found, f"src/qramsey imports start-up weight: {', '.join(found)}"


def test_detects_heavy_import():
    tree = ast.parse("import json, typing\n"
                     "from dataclasses import dataclass\n"
                     "from . import inspect\n"
                     "from collections import namedtuple\n"
                     "def f():\n"
                     "    import inspect as ins\n"
                     "    from typing.io import IO\n")
    assert heavy_imports(tree) == ["typing (line 1)", "dataclasses (line 2)",
                                   "inspect (line 6)", "typing.io (line 7)"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # in a child process, since pytest itself imports both; typing is not
    # asserted on, because site-packages may preload it
    code = ("import sys, qramsey, qramsey.cli\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent),
                              "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout == "[]\n"


# -- the declared Python floor ---------------------------------------------
#
# `int.from_bytes(b)` and `n.to_bytes(w)` default to big-endian only from
# Python 3.11 on; on 3.10 they raise TypeError.  The space kernels leave the
# byteorder out, so pyproject.toml must not declare an older floor.

PYPROJECT = SRC.parent.parent / "pyproject.toml"
BYTE_METHODS = ("from_bytes", "to_bytes")


def python_floor(text: str) -> tuple[int, int]:
    """The (major, minor) of pyproject's `requires-python = ">=X.Y"`."""
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text,
                      re.MULTILINE)
    return int(match[1]), int(match[2])


def byteorder_defaults(tree: ast.Module) -> list[int]:
    """Lines of `from_bytes`/`to_bytes` calls that pass no byteorder, and
    of references to either that are not called in place (as in
    `map(int.to_bytes, ...)`), whose calls cannot be read."""
    called, out = set(), []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in BYTE_METHODS):
            called.add(node.func)
            if len(node.args) < 2 and not any(
                    k.arg in ("byteorder", None) for k in node.keywords):
                out.append(node.lineno)
    out += [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in BYTE_METHODS
            and node not in called]
    return sorted(out)


def test_python_floor_covers_default_byteorder():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in byteorder_defaults(tree)]
    floor = python_floor(PYPROJECT.read_text(encoding="utf-8"))
    assert floor >= (3, 11) or not found, (
        f"pyproject.toml declares Python >={floor[0]}.{floor[1]}, but these "
        f"calls need 3.11's default byteorder: {', '.join(found)}")


def test_detects_default_byteorder():
    tree = ast.parse("int.from_bytes(b)\n"
                     "n.to_bytes(2, 'big')\n"
                     "n.to_bytes(2, byteorder='little')\n"
                     "x = list(map(int.to_bytes, ns, ws))\n"
                     "n.to_bytes()\n"
                     "int.from_bytes(b, **opts)\n")
    assert byteorder_defaults(tree) == [1, 4, 5]
    assert python_floor('[project]\nrequires-python = ">=3.10"\n') == (3, 10)
