import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchext
import matchext.cli as cli
import matchext.harness as harness
from matchext import family_cliques_plus_edge, write_edge_list, write_graph6
from matchext.cli import main
from conftest import GRAPH6_LINE_KINDS, complete, connected_census, cycle


@pytest.fixture
def h_file(tmp_path):
    path = tmp_path / "h.g6"
    path.write_text(write_graph6(family_cliques_plus_edge(2, 1)) + "\n")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    g = family_cliques_plus_edge(2, 1).delete_edge(6, 7)
    path = tmp_path / "broken.g6"
    path.write_text(write_graph6(g) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds(capsys, h_file):
    code, out, _ = run(capsys, "check", "--graph", h_file,
                       "--n", "2", "--k", "1", "--d", "2")
    assert code == 0
    assert "definition: holds" in out
    assert "characterization: holds" in out
    assert "agreement: yes" in out


def test_check_parity_error(capsys, h_file):
    code, _, err = run(capsys, "check", "--graph", h_file,
                       "--n", "2", "--k", "1", "--d", "1")
    assert code == 2
    assert "parity" in err


def test_check_fails_with_witness(capsys, broken_file):
    code, out, _ = run(capsys, "check", "--graph", broken_file,
                       "--n", "0", "--k", "1", "--d", "2")
    assert code == 1
    assert "definition: fails" in out
    assert "witness: blocked-extension" in out
    assert "matching: 0-1" in out


def test_check_single_method_and_json(capsys, h_file):
    code, out, _ = run(capsys, "check", "--graph", h_file, "--method",
                       "definition", "--n", "2", "--k", "1", "--d", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["verdicts"]["definition"]["witness"] is None
    assert "characterization" not in payload["verdicts"]


def test_check_byte_identical_reruns(capsys, broken_file):
    args = ("check", "--graph", broken_file, "--n", "0", "--k", "1", "--d", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_one_process_answers_every_call_as_if_first(capsys, h_file, broken_file, tmp_path):
    # the parser is built once per process; each call in a sequence must
    # print and exit as the same call made first in its process
    stream = tmp_path / "census.g6"
    stream.write_text("\n".join(write_graph6(g) for g in connected_census(4)) + "\n")
    calls = [
        ("check", "--graph", broken_file, "--n", "0", "--k", "1", "--d", "2"),
        ("census", "--input", str(stream)),
        ("check", "--graph", h_file, "--method", "definition",
         "--n", "2", "--k", "1", "--d", "2"),
        ("witness", "--graph", h_file, "--n", "2", "--k", "1", "--d", "2",
         "--edge", "6", "7", "--variant", "d1"),
    ]
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == first
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in first] == [1, 0, 0, 0]


def test_check_cap_refusal(capsys, tmp_path):
    path = tmp_path / "big.g6"
    path.write_text(write_graph6(complete(17)) + "\n")
    code, _, err = run(capsys, "check", "--graph", str(path),
                       "--n", "0", "--k", "1", "--d", "1")
    assert code == 2 and "capped at 16" in err
    code, out, _ = run(capsys, "check", "--graph", str(path), "--method",
                       "characterization", "--n", "0", "--k", "1", "--d", "1",
                       "--allow-large")
    assert code == 0


def test_check_stdin_requires_format(capsys):
    code, _, err = run(capsys, "check", "--graph", "-",
                       "--n", "0", "--k", "0", "--d", "0")
    assert code == 2
    assert "format" in err


def test_check_decode_error(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("ZZ!!\n")
    code, _, err = run(capsys, "check", "--graph", str(path),
                       "--n", "0", "--k", "0", "--d", "0")
    assert code == 3
    assert "decode error" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--graph", str(tmp_path / "nope.g6"),
                       "--n", "0", "--k", "0", "--d", "0")
    assert code == 2


def test_family_cliques_plus_edge(capsys, tmp_path):
    out_file = tmp_path / "fam.g6"
    code, out, _ = run(capsys, "family", "cliques-plus-edge",
                       "--d", "2", "--m", "1", "--out", str(out_file))
    assert code == 0
    assert "8 vertices" in out
    assert "distinguished edge: 6 7" in out
    from matchext import read_graph6

    assert read_graph6(out_file.read_text()) == family_cliques_plus_edge(2, 1)


def test_family_gadget_chain_edge_list(capsys, tmp_path):
    out_file = tmp_path / "g.el"
    code, out, _ = run(capsys, "family", "gadget-chain",
                       "--copies", "2", "--out", str(out_file))
    assert code == 0
    assert "12 vertices" in out
    assert out_file.read_text().startswith("12 23\n")


def test_family_bounds_and_missing_args(capsys, tmp_path):
    code, _, err = run(capsys, "family", "blowup", "--d", "0", "--m", "1",
                       "--out", str(tmp_path / "x.g6"))
    assert code == 2
    code, _, err = run(capsys, "family", "gadget-chain",
                       "--out", str(tmp_path / "x.g6"))
    assert code == 2 and "--copies" in err


def test_family_cone_note(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "cliques-plus-edge-cone",
                       "--d", "2", "--m", "1", "--out", str(tmp_path / "c.g6"))
    assert code == 0
    assert "apex: 8" in out


def test_family_to_stdout(capsys):
    code, out, _ = run(capsys, "family", "blowup", "--d", "1", "--m", "1",
                       "--out", "-")
    assert code == 0
    assert "independent hub vertices: 0 1 2" in out
    from matchext import family_blowup_bipartite, read_graph6

    first_line = out.splitlines()[0]
    assert read_graph6(first_line) == family_blowup_bipartite(1, 1)


def test_census_jobs_flag(capsys, tmp_path):
    stream = tmp_path / "s.g6"
    stream.write_text("\n".join(write_graph6(g) for g in connected_census(4)) + "\n")
    code, out, _ = run(capsys, "census", "--input", str(stream), "--jobs", "2",
                       "--theorems", "A3,D1")
    assert code == 0
    assert "violations total: 0" in out


def test_census_jobs_out_of_range(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("pool started with an out-of-range --jobs")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(complete(4)) + "\n")
    for jobs in ("0", "-1", "3"):
        code, _, err = run(capsys, "census", "--input", str(stream), "--jobs", jobs)
        assert code == 2
        assert "jobs rule violated" in err


def test_witness_found(capsys, h_file):
    code, out, _ = run(capsys, "witness", "--graph", h_file,
                       "--n", "2", "--k", "1", "--d", "2",
                       "--edge", "6", "7", "--variant", "d1")
    assert code == 0
    assert "separator: 0 1" in out
    assert "odd-component: 3 4 5" in out


def test_witness_absent(capsys, tmp_path):
    from matchext import family_gadget_chain

    path = tmp_path / "gadget.g6"
    path.write_text(write_graph6(family_gadget_chain(2)) + "\n")
    code, out, _ = run(capsys, "witness", "--graph", str(path),
                       "--n", "1", "--k", "3", "--d", "3",
                       "--edge", "10", "11", "--variant", "d3")
    assert code == 1
    assert "no witness" in out


def test_witness_edge_not_present(capsys, h_file):
    code, _, err = run(capsys, "witness", "--graph", h_file,
                       "--n", "2", "--k", "1", "--d", "2",
                       "--edge", "0", "7", "--variant", "d1")
    assert code == 2
    assert "not an edge" in err


def test_census_stream(capsys, tmp_path, monkeypatch):
    stream = tmp_path / "census.g6"
    stream.write_text("\n".join(write_graph6(g) for g in connected_census(4)) + "\n")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "census", "--input", str(stream),
                       "--report", str(report))
    assert code == 0
    assert "graphs examined: 10" in out
    assert "violations total: 0" in out
    payload = json.loads(report.read_text())
    assert payload["graphs"] == 10
    assert payload["violations_total"] == 0
    assert set(payload["theorems"]) == {
        "A3", "A4", "A5", "A6i", "A6ii", "B1", "B2", "C1", "D1", "D2", "D3"
    }


def test_census_stdin_with_decode_error(capsys, monkeypatch):
    text = write_graph6(complete(4)) + "\nnot-a-graph!!\n"
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "census")
    assert code == 3
    assert "decode errors: 1" in out


def test_census_max_order_refusal(capsys, tmp_path):
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(4)) + "\n")
    code, _, err = run(capsys, "census", "--input", str(stream),
                       "--max-order", "30")
    assert code == 2 and "30" in err
    code, _, _ = run(capsys, "census", "--input", str(stream),
                     "--max-order", "23", "--allow-large")
    assert code == 0
    # past the table limit, which --allow-large does not lift
    code, _, err = run(capsys, "census", "--input", str(stream),
                       "--max-order", "30", "--allow-large")
    assert code == 2 and "table limit of 24 vertices" in err


@pytest.mark.parametrize("flag, env", [("-3", None), (None, "-3")])
def test_census_refuses_a_negative_max_order(capsys, tmp_path, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("MATCHEXT_MAX_ORDER", env)
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(4)) + "\n")
    argv = ["census", "--input", str(stream)] + (["--max-order", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: census max order must be non-negative, got -3\n"
    assert out == ""


def test_census_theorem_selection_and_env_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MATCHEXT_MAX_ORDER", "5")
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(6)) + "\n" + write_graph6(cycle(4)) + "\n")
    code, out, _ = run(capsys, "census", "--input", str(stream),
                       "--theorems", "A3,D2")
    assert code == 0
    assert "graphs examined: 1" in out
    assert "skipped (over max order): 1" in out
    assert "A3" in out and "D2" in out and "B1" not in out


@pytest.mark.parametrize("theorems, named", [
    ("A3,A3", "repeated theorem ids: 'A3'"),
    ("A3,", "unknown theorem ids: ''"),
    ("", "--theorems must name at least one rule"),
])
def test_census_rejects_repeated_or_empty_theorem_ids(capsys, tmp_path, theorems, named):
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(6)) + "\n" + write_graph6(cycle(4)) + "\n")
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "census", "--input", str(stream), "--theorems", theorems,
                         "--report", str(report))
    assert code == 2
    assert err == f"error: {named}\n"
    assert out == "" and not report.exists()


@pytest.mark.parametrize("where", ["no/such/dir/r.json", "."])
def test_census_refuses_an_unwritable_report_before_reading(capsys, tmp_path, monkeypatch,
                                                            where):
    # a missing folder, or a folder in the file's place: the census must not
    # check a whole stream and only then fail to write its result
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(6)) + "\n")

    def unreached(*args):
        raise AssertionError("a graph was read before the report was refused")

    monkeypatch.setattr(harness, "read_graph6", unreached)
    report = tmp_path / where
    code, out, err = run(capsys, "census", "--input", str(stream), "--report", str(report))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write the report to {report}: ")


def test_report_check_leaves_the_path_as_it_was(tmp_path):
    # the check removes a report file that it made, and leaves the content
    # of an existing one for the census to overwrite
    report = tmp_path / "r.json"
    cli._refuse_unwritable(str(report))
    assert not report.exists()
    report.write_text("old")
    cli._refuse_unwritable(str(report))
    assert report.read_text() == "old"


def test_serial_census_does_not_import_multiprocessing(tmp_path):
    # only a pool needs multiprocessing, and nothing needs dataclasses,
    # inspect, typing or pathlib, so a serial census pays for none of their
    # imports at start-up; -S keeps site's own imports from hiding one
    stream = tmp_path / "empty.g6"
    stream.write_text("")
    code = ("import sys; heavy = ('multiprocessing', 'dataclasses', 'inspect', 'typing', "
            "'pathlib'); "
            "import matchext; print([m for m in heavy if m in sys.modules]); "
            "from matchext import cli; "
            "assert cli.main(['census', '--input', sys.argv[1]]) == 0; "
            "print([m for m in heavy if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(stream)], env=_matchext_env(),
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"


def test_edge_list_input_inferred(capsys, tmp_path):
    path = tmp_path / "graph.el"
    path.write_text(write_edge_list(cycle(6)))
    code, out, _ = run(capsys, "check", "--graph", str(path),
                       "--n", "0", "--k", "1", "--d", "0")
    assert code == 0


def test_check_and_witness_reject_non_utf8_input(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xffhc\n")
    code, _, err = run(capsys, "check", "--graph", str(path),
                       "--n", "0", "--k", "0", "--d", "0")
    assert code == 3
    assert err.startswith("decode error:") and "offset 0" in err
    code, _, err = run(capsys, "witness", "--graph", str(path), "--n", "0", "--k", "1",
                       "--d", "0", "--edge", "0", "1", "--variant", "d1")
    assert code == 3
    assert err.startswith("decode error:")


def test_census_non_utf8_line_is_a_decode_error(capsys, tmp_path):
    stream = tmp_path / "bad.g6"
    stream.write_bytes(b"Dhc\n\xffhc\nDhc\n")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "census", "--input", str(stream), "--theorems", "A3",
                       "--report", str(report))
    assert code == 3
    assert "graphs examined: 2" in out
    errors = json.loads(report.read_text())["decode_errors"]
    assert [e["line"] for e in errors] == [2]
    assert "offset 0" in errors[0]["error"]


def test_census_undecodable_stdin_exits_3(capsys, monkeypatch):
    # a strict stdin is switched to surrogateescape: the bad byte is one
    # per-line decode error, as in a file, and the census goes on
    stdin = io.TextIOWrapper(io.BytesIO(b"Dhc\n\xffhc\nDhc\n"), encoding="utf-8",
                             errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "census", "--theorems", "A3")
    assert code == 3
    assert "graphs examined: 2" in out and "decode errors: 1" in out
    assert err == ""


def test_census_stdin_under_strict_locale(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "matchext", "census", "--theorems", "A3",
         "--report", str(report)],
        input=b"Dhc\n\xffhc\nDhc\n", capture_output=True,
        env=dict(_matchext_env(), PYTHONIOENCODING="utf-8:strict"),
    )
    assert proc.returncode == 3, proc.stderr
    assert b"graphs examined: 2" in proc.stdout
    errors = json.loads(report.read_text())["decode_errors"]
    assert [e["line"] for e in errors] == [2]
    assert "offset 0" in errors[0]["error"]


def test_census_bad_max_order_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MATCHEXT_MAX_ORDER", "abc")
    stream = tmp_path / "s.g6"
    stream.write_text(write_graph6(cycle(4)) + "\n")
    code, _, err = run(capsys, "census", "--input", str(stream))
    assert code == 2
    assert err.startswith("error:") and "MATCHEXT_MAX_ORDER" in err


def test_census_line_numbers_follow_line_endings(capsys, tmp_path):
    stream = tmp_path / "s.g6"
    stream.write_bytes(b"Dhc\x0cDhc\nDhc\r\nbad!\rDhc\n")
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "census", "--input", str(stream), "--theorems", "A3",
                       "--report", str(report))
    assert code == 3
    assert "graphs examined: 2" in out
    errors = json.loads(report.read_text())["decode_errors"]
    assert [e["line"] for e in errors] == [1, 3]


@pytest.mark.parametrize("line, record", GRAPH6_LINE_KINDS)
def test_check_and_census_read_the_same_records(capsys, tmp_path, monkeypatch, line, record):
    # K5 follows, so a line holding no record leaves K5 as the first record
    k5 = write_graph6(complete(5))
    stream = tmp_path / "s.g6"
    stream.write_text(f"{line}\n{k5}\n")
    decoded = {cli: [], harness: []}
    for module, seen in decoded.items():
        def recording(text, real=module.read_graph6, seen=seen):
            seen.append(real(text))
            return seen[-1]

        monkeypatch.setattr(module, "read_graph6", recording)
    check_code, _, check_err = run(capsys, "check", "--graph", str(stream), "--n", "1",
                                   "--k", "0", "--d", "0", "--method", "characterization")
    report = tmp_path / "report.json"
    census_code, _, _ = run(capsys, "census", "--input", str(stream), "--theorems", "A3",
                            "--report", str(report))
    errors = json.loads(report.read_text())["decode_errors"]
    if record == "decode error":
        assert check_code == census_code == 3
        assert [e["line"] for e in errors] == [1]
        assert check_err == f"decode error: line 1: {errors[0]['error']}\n"
        assert decoded[cli] == [] and len(decoded[harness]) == 1
    else:
        assert check_code in (0, 1) and census_code == 0 and errors == []
        assert [write_graph6(g) for g in decoded[cli]] == [record or k5]
        assert decoded[harness][:1] == decoded[cli]


def _matchext_env() -> dict:
    """The environment for a ``python -m matchext`` child of the tests."""
    src = str(Path(matchext.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


# A child's peak RSS includes the memory of the process it was forked from,
# so the census is started from a small interpreter, not from pytest.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _census_peak_rss_kb(tmp_path, copies: int) -> int:
    stream = tmp_path / f"dhc{copies}.g6"
    stream.write_text("Dhc\n" * copies)
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "matchext", "census",
         "--theorems", "A3", "--input", str(stream)],
        env=_matchext_env(), capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[0] == "0"
    return int(out[1])


def test_census_peak_rss_does_not_grow_with_the_stream(tmp_path):
    small = _census_peak_rss_kb(tmp_path, 1000)
    large = _census_peak_rss_kb(tmp_path, 8000)
    assert large - small < 2048, (small, large)
