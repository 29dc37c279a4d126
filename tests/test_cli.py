"""Command-line behavior: exit codes, documents, verify round-trips."""

import json
import subprocess
import sys

import pytest

from wordrace import certcheck, tables
from wordrace.cli import EXIT_ERROR, main

Z_TEXT = "generators: a\n"
DINF_TEXT = "generators: a b\nrelator: aa\nrelator: bb\n"


@pytest.fixture
def z_pres(tmp_path):
    path = tmp_path / "z.pres"
    path.write_text(Z_TEXT)
    return str(path)


@pytest.fixture
def dinf_pres(tmp_path):
    path = tmp_path / "dinf.pres"
    path.write_text(DINF_TEXT)
    return str(path)


def test_solve_not_equal_exit_code(z_pres, capsys):
    code = main(["solve", z_pres, "--word", "aaa", "--budget", "1000000"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("verdict: not-equal\n")
    assert "certificate: finiteness" in out
    assert "steps-equal-arm:" in out


def test_solve_empty_word_exits_zero(z_pres, capsys):
    code = main(["solve", z_pres, "--word", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("verdict: equal\n")
    assert "certificate: equality" in out


def test_solve_exhausted_exit_code(tmp_path, capsys):
    path = tmp_path / "f2.pres"
    path.write_text("generators: a b\n")
    code = main(["solve", str(path), "--word", "a", "--budget", "2000"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("verdict: exhausted\n")
    assert "certificate" not in out


def test_solve_output_deterministic(z_pres, capsys):
    main(["solve", z_pres, "--word", "aaa"])
    first = capsys.readouterr().out
    main(["solve", z_pres, "--word", "aaa"])
    second = capsys.readouterr().out
    assert first == second


def test_solve_json(z_pres, capsys):
    code = main(["solve", z_pres, "--word", "aaa", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] == "not-equal"
    assert doc["steps_equal_arm"] == doc["steps_finite_arm"]
    assert doc["certificate"].startswith("certificate: finiteness")


def test_solve_verify_round_trip(z_pres, tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    code = main(["solve", z_pres, "--word", "aaa", "--json", "--output", str(out_path)])
    assert code == 1
    cert_text = json.loads(out_path.read_text())["certificate"]
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(cert_text)
    code = main(["verify", str(cert_path), z_pres, "--word", "aaa"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("valid: finiteness")


def test_solve_verify_round_trip_on_a_family_source(tmp_path, capsys):
    # The family's relators aa and bb join the coset enumeration after 1000
    # and 2000 finiteness steps; G1 = <a, b | abab, aa, bb> then closes.
    pres = tmp_path / "powers.pres"
    pres.write_text("generators: a b\nfamily: powers aa bb\n")
    out_path = tmp_path / "outcome.json"
    assert main(["solve", str(pres), "--word", "abab", "--json", "--output", str(out_path)]) == 1
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "not-equal"
    assert doc["steps_equal_arm"] == doc["steps_finite_arm"] == 2_229
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(doc["certificate"])
    assert main(["verify", str(cert_path), str(pres), "--word", "abab"]) == 0
    assert capsys.readouterr().out.startswith("valid: finiteness")


def test_verify_equality_certificate(dinf_pres, tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    assert main(["solve", dinf_pres, "--word", "abba", "--json", "--output", str(out_path)]) == 0
    cert_text = json.loads(out_path.read_text())["certificate"]
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(cert_text)
    assert main(["verify", str(cert_path), dinf_pres]) == 0
    capsys.readouterr()


def test_verify_caps_the_relators_a_certificate_cites(dinf_pres, tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "outcome.json"
    assert main(["solve", dinf_pres, "--word", "abba", "--json", "--output", str(out_path)]) == 0
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(json.loads(out_path.read_text())["certificate"])
    capsys.readouterr()
    monkeypatch.setattr(certcheck, "MAX_RELATORS", 1)
    assert main(["verify", str(cert_path), dinf_pres]) == 1
    assert capsys.readouterr().out == "invalid: factor 0 cites relator 1, above the cap of 1\n"
    monkeypatch.setattr(certcheck, "MAX_RELATORS", 2)
    assert main(["verify", str(cert_path), dinf_pres]) == 0


def test_verify_reads_a_certificate_with_its_line_ends_as_written(dinf_pres, tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    assert main(["solve", dinf_pres, "--word", "abba", "--json", "--output", str(out_path)]) == 0
    cert_path = tmp_path / "cert.txt"
    cert_path.write_bytes(json.loads(out_path.read_text())["certificate"].replace("\n", "\r\n").encode())
    capsys.readouterr()
    assert main(["verify", str(cert_path), dinf_pres]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("wordrace: error: ")


def test_verify_rejects_tampered_certificate(z_pres, tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    main(["solve", z_pres, "--word", "aaa", "--json", "--output", str(out_path)])
    cert_text = json.loads(out_path.read_text())["certificate"]
    tampered = cert_text.replace("image: A\n", "image: AA\n", 1)
    assert tampered != cert_text
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(tampered)
    code = main(["verify", str(cert_path), z_pres])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("invalid:")


def test_verify_word_crosscheck(z_pres, tmp_path, capsys):
    out_path = tmp_path / "outcome.json"
    main(["solve", z_pres, "--word", "aaa", "--json", "--output", str(out_path)])
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(json.loads(out_path.read_text())["certificate"])
    assert main(["verify", str(cert_path), z_pres, "--word", "aa"]) == 1
    capsys.readouterr()


def test_enum_tables_output(capsys):
    code = main(["enum-tables", "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[0] == "0 1 2 3"
    assert blocks[0].splitlines()[1] == "1 0 3 2"  # Klein before cyclic


def test_bad_word_is_error_exit(z_pres, capsys):
    code = main(["solve", z_pres, "--word", "xyz"])
    assert code == 3


def test_missing_file_is_error_exit(capsys):
    code = main(["solve", "/does/not/exist.pres", "--word", "a"])
    assert code == 3


def test_stream_spawn_failure_is_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text("generators: a\nstream: /nonexistent/binary\n")
    code = main(["solve", str(path), "--word", "a", "--budget", "1000"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error" in err


def test_quantum_above_maxsize_exhausts(tmp_path, capsys):
    # A quantum is any int >= 1: with one above the budget every turn is the
    # equality arm's, spent at its first step.
    path = tmp_path / "f2.pres"
    path.write_text("generators: a b\n")
    code = main(["solve", str(path), "--word", "a", "--budget", "10", "--quantum", str(sys.maxsize + 1)])
    out = capsys.readouterr().out
    assert code == 2
    assert "steps-equal-arm: 10\nsteps-finite-arm: 0\n" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_table_order_below_one_is_error_exit(dinf_pres, cap, capsys):
    code = main(["solve", dinf_pres, "--word", "abab", "--max-table-order", cap])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("wordrace: error: max_table_order must be")
    assert captured.out == ""


def test_enum_tables_order_below_one_is_error_exit(capsys):
    code = main(["enum-tables", "--order", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "wordrace: error: --order must be >= 1\n"
    assert captured.out == ""


def test_unexpected_errors_are_raised_again(monkeypatch):
    # Only a ValueError, OSError or StreamError is a usage error; anything
    # else is a fault of the program and keeps its traceback.
    def broken(order):
        raise RuntimeError("broken")

    monkeypatch.setattr(tables, "enumerate_tables", broken)
    with pytest.raises(RuntimeError, match="broken"):
        main(["enum-tables", "--order", "2"])


def test_bad_usage_exits_above_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 3


def test_corpus_command(capsys):
    code = main(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all verdicts agree" in out


def test_module_entry_point(z_pres):
    proc = subprocess.run(
        [sys.executable, "-m", "wordrace.cli", "solve", z_pres, "--word", "a", "--budget", "300000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("verdict: not-equal")
    assert "wall-time-ms:" in proc.stderr


EQUAL_CERT = """\
certificate: equality
presentation: f71096e423a3be943656fd58715a1fa94019ec7401e778922951e924705627a9
target: abba
relators-used: 2
factors: 2
factor: a 1 +
factor:  0 +
end: certificate
"""

Z3_CERT = """\
certificate: finiteness
presentation: 4057408fd0d93cd826e8e3031e4f23887fa053b77a61b0f49a46940b5bb7a9ba
target: aaa
tau-mode: words
relators-used: 1
order: 3
row: 0 1 2
row: 1 2 0
row: 2 0 1
image: 
image: a
image: A
cover: a 1
equation-certs: 2
cell: 1 1
certificate: equality
presentation: 4057408fd0d93cd826e8e3031e4f23887fa053b77a61b0f49a46940b5bb7a9ba
target: aaa
relators-used: 1
factors: 1
factor:  0 +
end: certificate
cell: 2 2
certificate: equality
presentation: 4057408fd0d93cd826e8e3031e4f23887fa053b77a61b0f49a46940b5bb7a9ba
target: AAA
relators-used: 1
factors: 1
factor:  0 -
end: certificate
cover-certs: 0
end: certificate
"""

# (presentation, arguments, exit code, stdout): each outcome kind as text and as JSON.
SOLVE_DOCUMENTS = {
    "equal": (DINF_TEXT, ["--word", "abAaba"], 0, f"""\
verdict: equal
word: abAaba
reduced: abba
budget: 1000000
quantum: 1
steps-equal-arm: 9
steps-finite-arm: 8

{EQUAL_CERT}"""),
    "equal-json": (DINF_TEXT, ["--word", "abAaba", "--json"], 0, f"""\
{{
  "budget": 1000000,
  "certificate": {json.dumps(EQUAL_CERT)},
  "quantum": 1,
  "reduced": "abba",
  "steps_equal_arm": 9,
  "steps_finite_arm": 8,
  "verdict": "equal",
  "word": "abAaba"
}}
"""),
    "exhausted": ("generators: a b\n", ["--word", "a", "--budget", "20", "--quantum", "3"], 2, """\
verdict: exhausted
word: a
reduced: a
budget: 20
quantum: 3
steps-equal-arm: 11
steps-finite-arm: 9
"""),
    "exhausted-json": ("generators: a b\n", ["--word", "a", "--budget", "20", "--quantum", "3", "--json"], 2, """\
{
  "budget": 20,
  "certificate": null,
  "quantum": 3,
  "reduced": "a",
  "steps_equal_arm": 11,
  "steps_finite_arm": 9,
  "verdict": "exhausted",
  "word": "a"
}
"""),
    "not-equal-unlimited": (Z_TEXT, ["--word", "aaa", "--unlimited"], 1, f"""\
verdict: not-equal
word: aaa
reduced: aaa
budget: unlimited
quantum: 1
steps-equal-arm: 7
steps-finite-arm: 7

{Z3_CERT}"""),
    "not-equal-unlimited-json": (Z_TEXT, ["--word", "aaa", "--unlimited", "--json"], 1, f"""\
{{
  "budget": null,
  "certificate": {json.dumps(Z3_CERT)},
  "quantum": 1,
  "reduced": "aaa",
  "steps_equal_arm": 7,
  "steps_finite_arm": 7,
  "verdict": "not-equal",
  "word": "aaa"
}}
"""),
}


@pytest.mark.parametrize("case", list(SOLVE_DOCUMENTS), ids=list(SOLVE_DOCUMENTS))
def test_solve_document_bytes(case, tmp_path, capsys):
    text, args, code, expected = SOLVE_DOCUMENTS[case]
    path = tmp_path / "g.pres"
    path.write_text(text)
    assert main(["solve", str(path), *args]) == code
    assert capsys.readouterr().out == expected
