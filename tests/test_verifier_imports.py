"""The verifier's code reaches no prover code.

``certcheck`` shares with the provers only the word kernel, the presentation
and the certificate records (``certificates``), so a prover bug cannot
certify itself.  The group axioms (``tables.is_group_table``) are the
prover's: the verifier checks a closed table, not a group.  It is checked twice: statically, over the
import statements of ``src/wordrace``, and at run time, over ``sys.modules``
after ``wordrace verify`` runs in a fresh interpreter.  The package loads each
module on first use, so the second check sees what the verifier ran.
"""

import ast
import json
import os

from helpers import run_fresh
from wordrace.cli import main

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "wordrace")
PROVER = {"cosets", "proofs", "derivation", "quotient", "scheduler", "tables"}


def import_statements(module):
    """The import statements of ``module``, anywhere in its source."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_base(node):
    """The module of the package a ``from`` import reads, "" for the package itself, or None outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and (node.module or "").startswith("wordrace"):
        return node.module.partition(".")[2]
    return None


def package_imports(module):
    """The modules of the package that ``module`` imports, anywhere in its source."""
    found = set()
    for node in import_statements(module):
        if isinstance(node, ast.ImportFrom):
            base = package_base(node)
            if base is None:
                continue
            # "from . import x" and "from wordrace import x" name modules.
            names = [base.partition(".")[0]] if base else [alias.name for alias in node.names]
        else:
            names = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("wordrace.")]
        found.update(name for name in names if os.path.exists(os.path.join(PACKAGE, name + ".py")))
    return found


def closure(module):
    seen, todo = set(), [module]
    while todo:
        for name in package_imports(todo.pop()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_certificates_imports_only_words():
    assert package_imports("certificates") == {"words"}


def test_verifier_imports_no_prover_module():
    assert package_imports("certcheck") == {"certificates", "presentation", "words"}
    assert closure("certcheck") == {"certificates", "presentation", "words"}
    assert not PROVER & closure("certcheck")


def test_the_walk_follows_imports():
    # The same walk finds the whole prover behind the solver, and the
    # verifier behind the CLI, so an empty result above is not vacuous.
    assert PROVER - {"scheduler", "tables"} <= closure("scheduler")
    assert {"certcheck", "scheduler", "certificates"} <= closure("cli")


def test_solver_imports_no_table_search_verifier_or_cli():
    # The solver runs the two coset enumerations and nothing else: not the
    # table search, the ground-truth oracle, the verifier or the CLI.
    assert not {"tables", "oracle", "certcheck", "cli"} & closure("scheduler")


def loaded_after_cli(*runs):
    """In a fresh interpreter, ``wordrace.cli.main``'s exit code on each argv of ``runs``; then the modules loaded."""
    lines = run_fresh(f"""
        import sys
        import wordrace.cli
        print([wordrace.cli.main(argv) for argv in {list(runs)!r}])
        print(*sorted(m.partition(".")[2] or m for m in sys.modules if m.startswith("wordrace")))
    """)
    return json.loads(lines[-2]), set(lines[-1].split())


def test_verify_runs_on_the_trusted_base_alone(tmp_path):
    pres = tmp_path / "dinf.pres"
    pres.write_text("generators: a b\nrelator: aa\nrelator: bb\n")
    runs = []
    for word, code in (("abab", 1), ("abba", 0)):  # a finiteness and an equality document
        out = tmp_path / f"{word}.json"
        assert main(["solve", str(pres), "--word", word, "--json", "--output", str(out)]) == code
        cert = tmp_path / f"{word}.cert"
        cert.write_text(json.loads(out.read_text())["certificate"])
        runs.append(["verify", str(cert), str(pres), "--word", word])
    codes, loaded = loaded_after_cli(*runs)
    assert codes == [0, 0]
    assert loaded == {"wordrace", "cli", "certcheck", "certificates", "presentation", "words"}
    assert not (PROVER | {"oracle"}) & loaded


def test_solve_loads_the_prover_at_run_time(tmp_path):
    # The same run-time check sees the prover behind the solver, so an empty
    # result above is not vacuous; the table search and the oracle stay out.
    pres = tmp_path / "dinf.pres"
    pres.write_text("generators: a b\nrelator: aa\nrelator: bb\n")
    codes, loaded = loaded_after_cli(["solve", str(pres), "--word", "abab", "--output", str(tmp_path / "out")])
    assert codes == [1]
    assert PROVER - {"tables"} <= loaded
    assert not {"tables", "oracle"} & loaded


def test_exhausted_solve_loads_no_verifier(tmp_path):
    # Only an equal or a not-equal verdict has a certificate to write, so an
    # exhausted solve runs the prover and never loads the verifier.
    pres = tmp_path / "f2.pres"
    pres.write_text("generators: a b\n")
    codes, loaded = loaded_after_cli(["solve", str(pres), "--word", "a", "--budget", "10"])
    assert codes == [2]
    assert "scheduler" in loaded and "certcheck" not in loaded


def test_no_module_imports_a_private_name_of_another():
    # A module's private names are its own: what two modules share goes
    # through a public name.
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert {"derivation", "proofs", "certcheck"} <= set(modules)
    private = [
        (module, base, alias.name)
        for module in modules
        for node in import_statements(module)
        if isinstance(node, ast.ImportFrom) and (base := package_base(node))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
