"""Presentations: parsing, lazy relator sources, extension."""

import os
import subprocess
import sys
import textwrap

import pytest

from helpers import PID_SCRIPT, serialize_presentation, stream_presentation
from wordrace import presentation
from wordrace.presentation import (
    PresentationSyntaxError,
    SourceExhausted,
    StreamError,
    extend,
    parse_presentation,
    prefix_document,
)
from wordrace.words import alphabet, conjugate, parse_word, word_at_index

Z_TEXT = "generators: a\n"
DINF_TEXT = "generators: a b\nrelator: aa\nrelator: bb\n"


def test_parse_z():
    p = parse_presentation(Z_TEXT)
    assert p.alphabet.generators == ("a",)
    with pytest.raises(SourceExhausted):
        p.relator(0)


def test_parse_dinf():
    p = parse_presentation(DINF_TEXT)
    assert p.relator(0) == parse_word("aa", p.alphabet)
    assert p.relator(1) == parse_word("bb", p.alphabet)
    assert p.try_relator(5) is None


def test_parse_comments_and_blanks():
    text = "# the infinite dihedral group\ngenerators: a b\n\nrelator: aa  # a squares away\nrelator: bb\n"
    p = parse_presentation(text)
    assert p.available(10) == 2


def test_relators_reduced_on_load():
    p = parse_presentation("generators: a\nrelator: aaAa\n")
    assert p.relator(0) == parse_word("aa", p.alphabet)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators: a\nrelator: xy\n")
    assert err.value.line == 2
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("relator: aa\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators: a a\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators: a\nwhat: ever\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators: a\nstream: x\nfamily: powers a\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators: a\nstream: x\nrelator: aa\n")
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators: a\nfamily: powers\n")
    assert err.value.line == 2
    for text, line in [
        ("generators: a\nrelator aa\n", 2),  # no colon
        ("generators: a\ngenerators: b\n", 2),
        ("# the names\ngenerators:\n", 2),
        ("generators: a\nstream:\n", 2),
        ("# nothing here\n", None),  # no generators line
        ("generators: a\nfamily: squares aa\n", 2),
        ("generators: a\nfamily: powers ab\n", 2),
    ]:
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation(text)
        assert err.value.line == line, text


def test_negative_relator_index_is_index_error():
    p = parse_presentation(DINF_TEXT)
    for q in (p, extend(p, parse_word("ab", p.alphabet))):
        with pytest.raises(IndexError):
            q.relator(-1)


def test_extend_places_x_at_index_zero():
    p = parse_presentation(Z_TEXT)
    x = parse_word("aaa", p.alphabet)
    q = extend(p, x)
    assert q.relator(0) == x
    assert not p.extended
    with pytest.raises(SourceExhausted):
        q.relator(1)


def test_extend_index_shift():
    p = parse_presentation(DINF_TEXT)
    q = extend(p, parse_word("abab", p.alphabet))
    for i in range(2):
        assert q.relator(i + 1) == p.relator(i)


def test_extend_rejects_empty_and_double():
    p = parse_presentation(Z_TEXT)
    with pytest.raises(ValueError):
        extend(p, b"")
    q = extend(p, parse_word("a", p.alphabet))
    with pytest.raises(ValueError):
        extend(q, parse_word("a", p.alphabet))


def test_extend_reduces_x():
    p = parse_presentation(DINF_TEXT)
    a, A, b = 0, 1, 2
    q = extend(p, bytes([a, b, A, a, b]))  # a b a^-1 a b
    assert q.relator(0) == parse_word("abb", p.alphabet)
    assert q.extended_by == q.relator(0)
    with pytest.raises(ValueError):
        extend(p, bytes([a, b, 3, A]))  # a b b^-1 a^-1 reduces to the identity


def test_extend_rejects_foreign_word():
    p = parse_presentation(Z_TEXT)
    foreign = parse_word("ab", alphabet("ab"))
    with pytest.raises(ValueError):
        extend(p, foreign)


def test_round_trip_inline():
    p = parse_presentation(DINF_TEXT)
    assert parse_presentation(serialize_presentation(p)).relator(1) == p.relator(1)
    assert serialize_presentation(p) == DINF_TEXT


def test_available_counts():
    p = parse_presentation(DINF_TEXT)
    assert p.available(1) == 1
    assert p.available(10) == 2
    q = extend(p, parse_word("ab", p.alphabet))
    assert q.available(10) == 3
    assert q.available(0) == 0


def test_extended_counts_at_the_head_boundary():
    # X is relator 0 and pulls nothing; the source's relators start at index 1.
    p = parse_presentation("generators: a b\nrelator: ab\nfamily: powers aa bb\n")
    q = extend(p, parse_word("abab", p.alphabet))
    assert (p.inline_count, p.pulled_count) == (1, 1)
    assert (q.inline_count, q.pulled_count) == (2, 2)
    assert q.available(-1) == q.available(0) == 0
    assert q.available(1) == 1 and q.pulled_count == 2
    assert q.available(2) == 2 and q.pulled_count == 2
    assert q.available(4) == 4 and (q.pulled_count, p.pulled_count) == (4, 3)


def test_family_powers_emits_conjugates():
    p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
    a = p.alphabet
    # t_0 = empty, t_1 = a, t_2 = a^-1, ...
    assert p.relator(0) == parse_word("aa", a)
    assert p.relator(1) == parse_word("bb", a)
    assert p.relator(3) == parse_word("abbA", a)
    for i in range(40):
        q, m = divmod(i, 2)
        t = word_at_index(q, a)
        base = parse_word("aa" if m == 0 else "bb", a)
        assert p.relator(i) == conjugate(t, base)


def test_family_with_inline_prefix():
    p = parse_presentation("generators: a\nrelator: aaa\nfamily: powers aaa\n")
    assert p.relator(0) == parse_word("aaa", p.alphabet)
    assert p.relator(1) == parse_word("aaa", p.alphabet)  # conjugator empty


def test_lattice_holds_words_spanning_every_relator_s_exponent_sums(tmp_path):
    # Inline: the prefix, reduced.  Powers: the prefix and the base words,
    # read without a pull.  A stream or a Python producer: unknown.
    def w(text):
        return parse_word(text, alphabet("ab"))

    assert parse_presentation("generators: a b\nrelator: aa\nrelator: bAab\n").source.lattice == (w("aa"), w("bb"))
    assert parse_presentation("generators: a b\n").source.lattice == ()
    p = parse_presentation("generators: a b\nrelator: abAB\nfamily: powers aa bBb\n")
    assert p.source.lattice == (w("abAB"), w("aa"), w("b"))
    assert p.pulled_count == p.inline_count == 1
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "once")
    try:
        assert p.source.lattice is None
        assert not pid_file.exists() and p.pulled_count == 0
    finally:
        p.close()
    assert presentation.RelatorSource([w("aa")]).lattice == (w("aa"),)
    assert presentation.RelatorSource([w("aa")], iter([w("bb")])).lattice is None
    assert presentation.RelatorSource([w("aa")], []).lattice is None
    assert presentation.RelatorSource([w("aa")], [w("bb")], (w("aa"), w("bb"))).lattice == (w("aa"), w("bb"))


STREAM_SCRIPT = textwrap.dedent(
    """
    import sys, time
    print("aa", flush=True)
    print("bb", flush=True)
    n = 0
    while n < 10000:
        n += 1
        print("aa", flush=True)
    """
)


def test_stream_source_reads_lazily(tmp_path):
    script = tmp_path / "emit.py"
    script.write_text(STREAM_SCRIPT)
    p = parse_presentation(f"generators: a b\nstream: {sys.executable} {script}\n")
    try:
        assert p.relator(0) == parse_word("aa", p.alphabet)
        assert p.relator(1) == parse_word("bb", p.alphabet)
        assert p.relator(2) == parse_word("aa", p.alphabet)
        # determinism of cached pulls
        assert p.relator(0) == parse_word("aa", p.alphabet)
        assert p.source.pulled_count == 3
    finally:
        p.close()


def test_stream_exhaustion(tmp_path):
    script = tmp_path / "two.py"
    script.write_text('print("aa")\nprint("bb")\n')
    p = parse_presentation(f"generators: a b\nstream: {sys.executable} {script}\n")
    try:
        assert p.available(10) == 2
        assert p.try_relator(2) is None
    finally:
        p.close()


def test_stream_spawn_failure():
    p = parse_presentation("generators: a\nstream: /nonexistent/binary\n")
    with pytest.raises(StreamError):
        p.relator(0)


def test_stream_bad_word(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text('print("zz")\n')
    p = parse_presentation(f"generators: a\nstream: {sys.executable} {script}\n")
    try:
        with pytest.raises(StreamError):
            p.relator(0)
    finally:
        p.close()


def test_concurrent_pulls_agree():
    import threading

    p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
    results = [None] * 4

    def puller(slot):
        results[slot] = [p.relator(i) for i in range(60)]

    threads = [threading.Thread(target=puller, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_prefix_document_is_canonical():
    p = parse_presentation(DINF_TEXT)
    assert prefix_document(p, 2) == "generators: a b\nrelator: aa\nrelator: bb\n"
    assert prefix_document(p, 0) == "generators: a b\n"


def test_failed_stream_stays_failed(tmp_path):
    p = stream_presentation(tmp_path, 'print("aa")\nprint("zz")\nprint("bb")\n')
    try:
        with pytest.raises(StreamError, match="line 2") as first:
            p.relator(1)
        with pytest.raises(StreamError) as again:
            p.relator(1)  # not the next line, bb, under the failed index
        assert again.value is first.value
        assert p.relator(0) == parse_word("aa", p.alphabet)  # cached before the failure
    finally:
        p.close()


def test_failed_spawn_is_not_retried(tmp_path):
    script = tmp_path / "late"
    p = parse_presentation(f"generators: a\nstream: {script}\n")
    with pytest.raises(StreamError, match="cannot spawn") as first:
        p.relator(0)
    script.write_text(f'#!{sys.executable}\nprint("aa")\n')
    script.chmod(0o755)
    with pytest.raises(StreamError) as again:
        p.relator(0)
    assert again.value is first.value


def test_stream_non_ascii_line_is_stream_error(tmp_path):
    p = stream_presentation(tmp_path, 'import sys\nsys.stdout.buffer.write(b"aa\\n\\xff\\n")\n')
    try:
        with pytest.raises(StreamError, match="line 2"):
            p.available(5)
        assert p.pulled_count == 1
    finally:
        p.close()


def assert_gone(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # a child still running, or exited but unreaped, is found


def test_close_before_any_pull_spawns_nothing(tmp_path):
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "forever")
    p.close()
    assert p.available(1) == 0  # a closed source is exhausted
    assert not pid_file.exists()


def test_close_stops_never_ending_stream(tmp_path):
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "forever")
    try:
        assert p.available(5) == 5
    finally:
        p.close()
    assert_gone(int(pid_file.read_text()))


def test_stream_end_reaps_child_before_close(tmp_path):
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "once")
    try:
        assert p.available(5) == 2
        assert_gone(int(pid_file.read_text()))
    finally:
        p.close()


# Writes its pid to argv[1], prints aa, then argv[2] letters a and a newline, or a forever if argv[2] is "forever".
LONG_LINE_SCRIPT = """
    import os, sys, time
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    print("aa", flush=True)
    try:
        if sys.argv[2] != "forever":
            print("a" * int(sys.argv[2]), flush=True)
        else:
            while True:
                sys.stdout.write("a")
                sys.stdout.flush()
    except BrokenPipeError:
        time.sleep(30)
"""


def test_stream_line_at_the_limit_is_read(tmp_path, monkeypatch):
    monkeypatch.setattr(presentation, "MAX_RELATOR_LETTERS", 8)
    p = stream_presentation(tmp_path, 'import sys\nprint("a" * 8)\nsys.stdout.write("b" * 8)\n')
    try:
        assert p.available(5) == 2  # the last line has no newline
        assert p.relator(0) == parse_word("a" * 8, p.alphabet)
        assert p.relator(1) == parse_word("b" * 8, p.alphabet)
    finally:
        p.close()


@pytest.mark.parametrize("letters", ["9", "forever"])
def test_stream_line_over_the_limit_fails(tmp_path, monkeypatch, letters):
    monkeypatch.setattr(presentation, "MAX_RELATOR_LETTERS", 8)
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, LONG_LINE_SCRIPT, pid_file, letters)
    try:
        with pytest.raises(StreamError, match="stream line 2 is longer than 8 letters"):
            p.available(5)
        assert p.pulled_count == 1
        assert_gone(int(pid_file.read_text()))  # reaped on the error, before close
    finally:
        p.close()


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("generators: a b\nrelator: aa\nfamily: squares aa\n# end\n", 3, "unknown family 'squares'"),
        ("generators: a b\nrelator: aa\nfamily: powers\n# end\n", 3, "family powers needs at least one base word"),
        ("generators: a b\nrelator: aa\nfamily: powers aa Q\n# end\n", 3, "unknown generator 'q'"),
        ("generators: a b\nfamily: powers aa\n\nrelator: bb\n", 4, "relator after stream/family line"),
        ("generators: a b\nstream: x\nfamily: powers aa\n", 3, "more than one stream/family line"),
        # Two bad lines: the first is reported.
        ("generators: a b\nfamily: powers aa Q\nrelator: zz\n", 2, "unknown generator 'q'"),
        ("generators: a b\nfamily: squares aa\nstream: x\n", 2, "unknown family 'squares'"),
        ("generators: a b\nrelator: zz\nfamily: squares aa\n", 2, "unknown generator 'z'"),
    ],
    ids=["unknown-family", "no-base-word", "bad-base-word", "relator-after-tail", "second-tail",
         "bad-base-word-then-relator", "unknown-family-then-stream", "bad-relator-then-unknown-family"],
)
def test_a_file_is_refused_at_its_first_bad_line(text, line, message):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert (err.value.line, str(err.value)) == (line, f"{message} (line {line})")


def test_a_stream_file_refused_on_a_later_line_starts_nothing(tmp_path, monkeypatch):
    spawned = []
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: spawned.append(args))
    script, pid_file = tmp_path / "emit.py", tmp_path / "pid"
    script.write_text(textwrap.dedent(PID_SCRIPT))
    with pytest.raises(PresentationSyntaxError, match=r"\(line 3\)"):
        parse_presentation(f"generators: a b\nstream: {sys.executable} {script} {pid_file} forever\nrelator: aa\n")
    assert spawned == [] and not pid_file.exists()


# Writes its pid to argv[1], ignores SIGTERM, then prints aa forever.
IGNORES_TERM_SCRIPT = """
    import os, signal, sys
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    while True:
        print("aa", flush=True)
"""


def test_close_kills_a_stream_that_ignores_sigterm(tmp_path, monkeypatch):
    wait, timeouts = subprocess.Popen.wait, []

    def short_wait(proc, timeout=None):  # the grace period after SIGTERM, cut from 5 s to 0.2 s
        timeouts.append(timeout)
        return wait(proc, None if timeout is None else 0.2)

    monkeypatch.setattr(subprocess.Popen, "wait", short_wait)
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, IGNORES_TERM_SCRIPT, pid_file)
    try:
        assert p.available(3) == 3
    finally:
        p.close()
    assert timeouts == [5, None]  # the timed wait ran out, and the kill was waited for
    assert_gone(int(pid_file.read_text()))
