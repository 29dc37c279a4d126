"""Start-up: what importing wordrace loads, measured in fresh interpreters.

The package loads each public name's module on first use, so ``import
wordrace`` loads no submodule and each entry point only the modules it runs.
The library and its CLI load neither ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``tokenize``) nor ``subprocess`` and ``shlex``;
a ``stream:`` source imports those two on its first pull, when it spawns
its command.
"""

import sys
import textwrap

import pytest

import wordrace
from helpers import PID_SCRIPT, run_fresh

FORBIDDEN = {"dataclasses", "inspect", "subprocess", "shlex"}

# The public names, by the module that defines each.
PUBLIC = {
    "certificates": ["DyckFactor", "EqualityCertificate", "FinitenessCertificate", "MultiplicationTable"],
    "derivation": ["EqualityTask"],
    "presentation": ["Presentation", "PresentationSyntaxError", "SourceExhausted", "StreamError", "extend",
                     "parse_presentation"],
    "proofs": ["equation_words"],
    "quotient": ["FinitenessTask"],
    "scheduler": ["EQUAL", "EXHAUSTED", "NOT_EQUAL", "Budget", "Outcome", "solve"],
    "tables": ["enumerate_tables", "eval_in_table", "is_group_table", "table_at_cursor"],
    "words": ["Alphabet", "MalformedWordError", "Word", "alphabet", "concat", "conjugate", "format_word", "invert",
              "parse_word", "reduce_word", "word_at_index"],
}
MODULES = {"certcheck", "certificates", "cli", "cosets", "derivation", "oracle", "presentation", "proofs", "quotient",
           "scheduler", "tables", "words"}


@pytest.mark.parametrize("statement, module", [
    pytest.param("import wordrace", "wordrace", id="wordrace"),
    pytest.param("import wordrace.cli", "wordrace.cli", id="wordrace.cli"),
    # The two above no longer reach the solver or the table search.
    pytest.param("from wordrace import solve", "wordrace.scheduler", id="solve"),
    pytest.param("import wordrace.certcheck", "wordrace.certcheck", id="wordrace.certcheck"),
    pytest.param("from wordrace import enumerate_tables", "wordrace.tables", id="enumerate_tables"),
])
def test_import_loads_no_heavy_module(statement, module):
    loaded = run_fresh(f"""
        import sys
        before = set(sys.modules)
        {statement}
        print(*sorted(set(sys.modules) - before), sep="\\n")
    """)
    assert module in loaded
    assert FORBIDDEN.isdisjoint(loaded), sorted(FORBIDDEN.intersection(loaded))


def package_modules_after(code):
    """The wordrace modules loaded in a fresh interpreter after it runs ``code``."""
    lines = run_fresh(code + '\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith("wordrace")))')
    return set(lines[-1].split())


def test_import_loads_no_submodule():
    assert package_modules_after("import wordrace") == {"wordrace"}


def test_table_enumeration_loads_only_its_modules():
    loaded = package_modules_after("from wordrace import enumerate_tables\nenumerate_tables(8)")
    assert loaded == {"wordrace", "wordrace.tables", "wordrace.certificates", "wordrace.words"}


def test_enum_tables_command_loads_only_its_modules():
    loaded = package_modules_after('from wordrace.cli import main\nmain(["enum-tables", "--order", "4"])')
    assert loaded == {"wordrace", "wordrace.cli", "wordrace.tables", "wordrace.certificates", "wordrace.words"}


def test_public_names_are_their_home_modules_objects_and_bind_on_first_access():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 34
    assert sorted(wordrace.__all__) == names
    assert {name for name in dir(wordrace) if not name.startswith("_")} == {*names, *MODULES}
    lines = run_fresh(f"""
        import importlib
        import wordrace
        for home, names in {PUBLIC!r}.items():
            for name in names:
                unbound = name not in vars(wordrace)
                value = getattr(wordrace, name)
                same = value is getattr(importlib.import_module("wordrace." + home), name)
                print(name, unbound, same, vars(wordrace).get(name) is value)
    """)
    assert lines == [f"{name} True True True" for names in PUBLIC.values() for name in names]
    assert wordrace.equation_words is wordrace.quotient.equation_words is wordrace.proofs.equation_words


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wordrace.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from wordrace import no_such_name  # noqa: F401


def test_submodule_resolves_on_first_access():
    lines = run_fresh("""
        import sys
        import wordrace
        print("wordrace.tables" in sys.modules)
        tables = wordrace.tables
        print(tables.__name__, sys.modules["wordrace.tables"] is tables, "tables" in vars(wordrace))
    """)
    assert lines == ["False", "wordrace.tables True True"]


def test_stream_spawns_and_imports_subprocess_on_first_pull(tmp_path):
    script = tmp_path / "emit.py"
    script.write_text(textwrap.dedent(PID_SCRIPT))
    pid_file = tmp_path / "pid"
    text = f"generators: a b\nstream: {sys.executable} {script} {pid_file} forever\n"
    lines = run_fresh(f"""
        import os, sys
        from wordrace import parse_presentation
        p = parse_presentation({text!r})
        print("subprocess" in sys.modules, os.path.exists({str(pid_file)!r}))
        print(p.available(3))
        print("subprocess" in sys.modules)
        p.close()
        try:
            os.kill(int(open({str(pid_file)!r}).read()), 0)  # found while running, or exited but unreaped
            print("alive")
        except ProcessLookupError:
            print("reaped")
    """)
    assert lines == ["False False", "3", "True", "reaped"]
