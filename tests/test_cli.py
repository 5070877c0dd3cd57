import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dgquiver import TruncatedIdealSpan, cli, ideals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the child processes import dgquiver from this checkout's `src`, installed or not
SRC = str(Path(__file__).resolve().parent.parent / "src")
PYTHONPATH = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
ENV = {**os.environ, "PYTHONPATH": PYTHONPATH}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dgquiver.cli", *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )


def test_module_entry_point_runs_the_cli(capsys):
    # `python -m dgquiver` is the installed `dgquiver` script: same exit code,
    # same bytes on stdout as `cli.main`
    argv = ["validate", str(FIXTURES / "square_d4.quiver")]
    res = subprocess.run([sys.executable, "-m", "dgquiver", *argv], capture_output=True, env=ENV)
    assert res.returncode == 0, res.stderr
    assert cli.main(argv) == 0
    assert res.stdout == capsys.readouterr().out.encode()


def test_homology_one_vertex_zero_m4():
    res = run_cli("homology", str(FIXTURES / "one_vertex_zero.quiver"), "--m", "4")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["homology"]["dims"] == {"0": 1, "1": 1, "2": 2, "3": 2}
    assert payload["homology"]["stabilized"] is True
    assert payload["homology"]["vosnex"] is False


def test_homology_one_vertex_empty_m4():
    res = run_cli("homology", str(FIXTURES / "one_vertex_empty.quiver"), "--m", "4")
    payload = json.loads(res.stdout)
    assert payload["homology"]["dims"] == {"0": 1, "1": 0, "2": 0, "3": 0}
    assert payload["homology"]["vosnex"] is True


def test_ideal_dim_quaternion():
    res = run_cli("ideal-dim", str(FIXTURES / "quaternion.quiver"))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["ideal"] == {"admissible_N": 5, "dim": 8}


# Every command that searches grows one span through its bound search (n = 2
# to 5 on quaternion) and reads the searched span: `report` for dim, the
# minimal system and Ext^2, `vosnex` for finiteness.  The split-extension
# check builds no other span; the homology, under quaternion's `option
# max_len = 3`, needs no bound and searches not at all.  Apart from those,
# each command that asks for the minimal system grows one exact span for the
# one generation proof that quaternion asks.
@pytest.mark.parametrize("argv, spans", [
    (["report", "--m", "3"], 1),
    (["report", "--m", "2"], 1),
    (["split-ext-2"], 1),
    (["homology", "--m", "3"], 0),
    (["vosnex", "--m", "3"], 1),
    (["ideal-dim"], 1),
    (["system-of-relations"], 1),
    (["ext2"], 1),
    (["admissibility"], 1),
])
def test_cli_certifies_once(argv, spans, monkeypatch, capsys):
    built, proof_spans, proving = [], [], []
    init = TruncatedIdealSpan.__init__
    monkeypatch.setattr(
        TruncatedIdealSpan, "__init__",
        lambda *a: (proof_spans if proving else built).append(1) or init(*a),
    )
    prove = ideals.generates_arrow_power

    def proof(*a):
        proving.append(1)
        try:
            return prove(*a)
        finally:
            proving.pop()

    monkeypatch.setattr(ideals, "generates_arrow_power", proof)
    searches = []
    certify = ideals.certify

    def counted(q, relations, n=None, **k):
        searches.append(n is None)
        return certify(q, relations, n, **k)

    monkeypatch.setattr(ideals, "certify", counted)
    monkeypatch.setattr(cli, "certify", counted)
    assert cli.main([argv[0], str(FIXTURES / "quaternion.quiver"), *argv[1:]]) == 0
    assert len(built) == spans
    assert len(proof_spans) == (argv[0] in ("report", "system-of-relations"))
    assert searches == [True] * spans


def test_homology_under_a_given_cutoff_searches_no_bound(tmp_path, monkeypatch, capsys):
    # three commuting loops have no admissibility bound, and the search that
    # says so costs seconds and hundreds of MiB; under --max-len or `option
    # max_len` the homology reads no bound, so it builds no span
    text = "vertex v\n" + "".join(f"arrow x{i} : v -> v\n" for i in range(3)) + "".join(
        f"relation c{i}{j} : v -> v = x{i}*x{j} - x{j}*x{i}\n" for i, j in ((0, 1), (0, 2), (1, 2))
    )
    flag, option = tmp_path / "flag.quiver", tmp_path / "option.quiver"
    flag.write_text(text)
    option.write_text(text + "option max_len = 3\n")
    built = []
    init = TruncatedIdealSpan.__init__
    monkeypatch.setattr(TruncatedIdealSpan, "__init__", lambda *a: built.append(1) or init(*a))
    homology = []
    for f, argv in ((flag, ["--max-len", "3"]), (option, [])):
        assert cli.main(["homology", str(f), "--m", "3", *argv]) == 0
        homology.append(json.loads(capsys.readouterr().out)["homology"])
    assert built == []
    assert homology[0] == homology[1] and homology[0]["L"] == 3


def test_a_relation_the_others_generate_is_dropped(tmp_path, monkeypatch, capsys):
    # r1 = x*y - y*x is half of r4, so the minimal system drops it: without
    # r1 the relations still span the boundary quotient, and the exact proof
    # that they generate r^3 answers True; `report` keeps the same system
    f = tmp_path / "dropped.quiver"
    f.write_text(
        "vertex v\narrow x : v -> v\narrow y : v -> v\n"
        "relation r1 : v -> v = x*y - y*x\nrelation r2 : v -> v = x*x\n"
        "relation r3 : v -> v = y*y\nrelation r4 : v -> v = 2 x*y - 2 y*x\n"
    )
    proofs = []
    prove = ideals.generates_arrow_power
    monkeypatch.setattr(
        ideals, "generates_arrow_power", lambda *a: proofs.append(prove(*a)) or proofs[-1]
    )
    kept = [
        {"label": "r2", "body": "x*x"},
        {"label": "r3", "body": "y*y"},
        {"label": "r4", "body": "2 x*y - 2 y*x"},
    ]
    assert cli.main(["system-of-relations", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["ideal"] == {
        "admissible_N": 3, "system_of_relations": kept
    }
    assert True in proofs
    assert cli.main(["report", str(f), "--m", "3"]) == 0
    ideal = json.loads(capsys.readouterr().out)["ideal"]
    assert (ideal["admissible_N"], ideal["system_of_relations"]) == (3, kept)


def test_vosnex_respects_max_n(capsys):
    # quaternion's bound is 5, so a search capped at 3 finds none
    argv = ["vosnex", str(FIXTURES / "quaternion.quiver"), "--m", "3", "--max-n", "3"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: could not certify the quotient algebra finite-dimensional\n"
    )


def test_ext2_quaternion():
    payload = json.loads(run_cli("ext2", str(FIXTURES / "quaternion.quiver")).stdout)
    assert payload["ideal"]["ext2"] == 2


def test_system_of_relations_quaternion():
    payload = json.loads(
        run_cli("system-of-relations", str(FIXTURES / "quaternion.quiver")).stdout
    )
    labels = [r["label"] for r in payload["ideal"]["system_of_relations"]]
    assert labels == ["r1", "r2", "r3"]


def test_vosnex_acyclic_true():
    res = run_cli("vosnex", str(FIXTURES / "one_vertex_empty.quiver"), "--m", "3")
    payload = json.loads(res.stdout)
    assert payload["vosnex"]["all_equal"] is True
    assert payload["vosnex"]["small_negative_vanishing"] is True


def test_split_ext_2_square():
    res = run_cli("split-ext-2", str(FIXTURES / "square_d4.quiver"))
    payload = json.loads(res.stdout)
    assert payload["checks"]["split_extension"] == "ok"


def test_h0_square_m3():
    res = run_cli("h0", str(FIXTURES / "square_d4.quiver"), "--m", "3")
    payload = json.loads(res.stdout)
    rels = [r for r in payload["h0"]["relations"] if r != "0"]
    assert rels == ["-alpha*beta + gamma*delta"]


def test_build_gamma_table(tmp_path):
    res = run_cli(
        "build-gamma", str(FIXTURES / "square_d4.quiver"), "--m", "4",
        "--output", str(tmp_path / "out.json"),
    )
    assert res.returncode == 0 and res.stdout == ""
    payload = json.loads((tmp_path / "out.json").read_text())
    degrees = {a["name"]: a["degree"] for a in payload["gamma"]["arrows"]}
    assert degrees["eps_r"] == -2 and degrees["eps_r_star"] == -1
    assert degrees["alpha_star"] == -3 and degrees["t_v1"] == -4
    assert payload["gamma"]["differentials"]["eps_r_star"] == "alpha*beta - gamma*delta"


def test_check_d2_square():
    res = run_cli(
        "check-d2", str(FIXTURES / "square_d4.quiver"), "--m", "3", "--max-len", "4"
    )
    payload = json.loads(res.stdout)
    assert payload["checks"] == {"d_squared_b": "ok", "d_squared_gamma": "ok"}


def test_report_runs_everything_applicable():
    res = run_cli(
        "report", str(FIXTURES / "square_d4.quiver"), "--m", "2", "--max-len", "5"
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["m"] == 2
    assert payload["ideal"]["dim"] == 9
    assert payload["ideal"]["ext2"] == 1
    assert payload["checks"]["d_squared"] == "ok"
    assert payload["checks"]["split_extension"] == "ok"
    assert list(payload) == ["input", "m", "gamma", "homology", "ideal", "checks"]


def test_report_quaternion_ideal_block():
    res = run_cli("report", str(FIXTURES / "quaternion.quiver"), "--m", "3")
    payload = json.loads(res.stdout)
    assert payload["ideal"]["admissible_N"] == 5
    assert payload["ideal"]["dim"] == 8
    assert payload["ideal"]["ext2"] == 2
    assert [r["label"] for r in payload["ideal"]["system_of_relations"]] == [
        "r1", "r2", "r3",
    ]
    # the fixture pins a short homology cutoff; the report must say so
    assert payload["homology"]["L"] == 3
    assert payload["homology"]["stabilized"] is False
    assert payload["checks"]["d_squared"] == "ok"


def test_reports_are_byte_identical_across_runs():
    a = run_cli("report", str(FIXTURES / "one_vertex_zero.quiver"), "--m", "4")
    b = run_cli("report", str(FIXTURES / "one_vertex_zero.quiver"), "--m", "4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_parse_error_exit_code_and_diagnostics(tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex v\nrelation r : v -> v = ghost\n")
    res = run_cli("homology", str(bad), "--m", "3")
    assert res.returncode == 2
    assert "ghost" in res.stderr
    assert "line 2" in res.stderr
    assert res.stdout == ""


def test_missing_m_is_a_computation_error():
    res = run_cli("homology", str(FIXTURES / "one_vertex_zero.quiver"))
    assert res.returncode == 1
    assert "needs m" in res.stderr


def test_graded_file_rejected_by_relations_pipeline(tmp_path):
    f = tmp_path / "graded.quiver"
    f.write_text("vertex v\narrow s : v -> v deg -1\n")
    res = run_cli("build-b", str(f))
    assert res.returncode == 1
    assert "degree 0" in res.stderr
    # but validate accepts it
    assert run_cli("validate", str(f)).returncode == 0


def test_file_option_sets_default_max_len():
    # quaternion fixture pins max_len = 3; the report must echo it
    res = run_cli("homology", str(FIXTURES / "quaternion.quiver"), "--m", "3")
    payload = json.loads(res.stdout)
    assert payload["homology"]["L"] == 3


def test_m_line_in_file_is_used(tmp_path):
    f = tmp_path / "with_m.quiver"
    f.write_text("vertex v\nm = 3\n")
    res = run_cli("homology", str(f))
    assert res.returncode == 0
    assert json.loads(res.stdout)["m"] == 3


def test_zero_denominator_is_a_parse_error(tmp_path):
    f = tmp_path / "zero_den.quiver"
    f.write_text("vertex v\narrow a : v -> v\nrelation r : v -> v = 1/0 a*a\n")
    res = run_cli("validate", str(f))
    assert res.returncode == 2
    assert res.stderr == f"{f}:line 3, column 23: zero denominator\n"
    assert res.stdout == ""


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_errors_exit_1_without_traceback(monkeypatch, capsys, exc):
    def run(*args):
        raise exc()

    monkeypatch.setattr(cli, "run", run)
    code = cli.main(["homology", str(FIXTURES / "quaternion.quiver"), "--m", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {exc.__name__}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "option, argv",
    [
        ("max_len = abc", ["homology", "--m", "3"]),
        ("max_len = abc", ["homology", "--m", "3", "--max-len", "4"]),
        ("max_n = 1/2", ["ideal-dim"]),
        ("max_n = 1/2", ["ideal-dim", "--max-n", "4"]),
        ("max_len = abc", ["validate"]),
    ],
)
def test_non_integer_integer_option_is_an_error(tmp_path, capsys, option, argv):
    f = tmp_path / "bad_option.quiver"
    f.write_text(f"vertex v\noption {option}\n")
    command, *flags = argv
    assert cli.main([command, str(f), *flags]) == 1
    out, err = capsys.readouterr()
    key, _, value = option.partition(" = ")
    assert out == "" and err == f"error: option {key} = {value} is not an integer\n"


def test_negative_max_len_option_is_an_error(tmp_path, capsys):
    f = tmp_path / "negative.quiver"
    f.write_text("vertex v\narrow a : v -> v\noption max_len = -3\n")
    assert cli.main(["homology", str(f), "--m", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: max_len must be >= 0\n"


# the commands that search for a bound, up to --max-n or `option max_n`
_MAX_N_COMMANDS = sorted([
    "admissibility", "ext2", "homology", "ideal-dim", "report", "split-ext-2",
    "system-of-relations", "vosnex",
])


@pytest.mark.parametrize("command", _MAX_N_COMMANDS)
@pytest.mark.parametrize(
    "flag, option", [(["--max-n", "0"], ""), ([], "option max_n = -5\n")], ids=["flag", "option"]
)
def test_invalid_max_n_is_an_error(capsys, tmp_path, command, flag, option):
    # a cap below 2 is a usage error, never "no bound found"
    f = tmp_path / "square.quiver"
    f.write_text((FIXTURES / "square_d4.quiver").read_text() + option)
    assert cli.main([command, str(f), "--m", "3", *flag]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: max_n must be >= 2\n"


# each flag: a value below its range and the message of the commands that read it
_OUT_OF_RANGE = {
    "--m": ("1", "the construction needs m >= 2"),
    "--max-len": ("-1", "max_len must be >= 0"),
    "--max-n": ("1", "max_n must be >= 2"),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("flag", sorted(_OUT_OF_RANGE))
def test_out_of_range_flag_is_an_error_whether_read_or_not(capsys, command, flag):
    # a command that ignores the flag reports it as its readers do; the
    # readers keep their messages, vosnex its own bound on m
    value, message = _OUT_OF_RANGE[flag]
    if (command, flag) == ("vosnex", "--m"):
        message = "m > 2 required"
    m = [] if flag == "--m" else ["--m", "3"]
    assert cli.main([command, str(FIXTURES / "square_d4.quiver"), flag, value, *m]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["check-d2", "--m", "3", "--max-len", "-3"], "max_len must be >= 0"),
    (["ideal-dim", "--m", "-7", "--max-len", "-3"], "the construction needs m >= 2"),
])
def test_unread_flags_are_range_checked(capsys, argv, message):
    assert cli.main([argv[0], str(FIXTURES / "square_d4.quiver"), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


_GRADED = "arrow g : v1 -> v1 deg -1\n"


@pytest.mark.parametrize("argv, extra, message", [
    # each input has a second error, which the comment names; the range
    # check runs first, so it is the one reported
    (["homology", "--m", "1", "--max-len", "-1"], "", "max_len must be >= 0"),  # m >= 2
    (["vosnex", "--m", "2", "--max-len", "-1"], "", "max_len must be >= 0"),  # m > 2
    (["homology", "--max-len", "-1"], "", "max_len must be >= 0"),  # no m
    # max_n below 2 as well
    (["report", "--m", "3", "--max-len", "-1", "--max-n", "1"], "", "max_len must be >= 0"),
    (["ideal-dim", "--max-n", "1"], _GRADED, "max_n must be >= 2"),  # nonzero degree
])
def test_range_check_comes_before_any_other_error(tmp_path, capsys, argv, extra, message):
    f = tmp_path / "square.quiver"
    f.write_text((FIXTURES / "square_d4.quiver").read_text() + extra)
    assert cli.main([argv[0], str(f), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["build-gamma", "homology", "report"])
def test_clashing_generated_names_are_refused(tmp_path, capsys, command):
    # the dual of t_u and the loop of u_star would both be t_u_star
    f = tmp_path / "clash.quiver"
    f.write_text("vertex u_star\narrow t_u : u_star -> u_star\nrelation r : u_star -> u_star = t_u*t_u\n")
    assert cli.main([command, str(f), "--m", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: generated arrow name 't_u_star' already in use\n"


@pytest.mark.parametrize("option, message", [
    ("max_len = -3", "max_len must be >= 0"),
    ("max_n = 1", "max_n must be >= 2"),
])
@pytest.mark.parametrize("argv", [["validate"], ["check-d2", "--m", "3"]])
def test_unread_file_options_are_range_checked(tmp_path, capsys, option, message, argv):
    # a file option is checked as its flag is, whether the command reads it or not
    f = tmp_path / "square.quiver"
    f.write_text((FIXTURES / "square_d4.quiver").read_text() + f"option {option}\n")
    assert cli.main([argv[0], str(f), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    f.write_text((FIXTURES / "square_d4.quiver").read_text() + "option max_len = 0\noption max_n = 2\n")
    assert cli.main([argv[0], str(f), *argv[1:]]) == 0


@pytest.mark.parametrize("argv", [
    ["validate", "--m", "2", "--max-len", "0", "--max-n", "2"],
    ["build-b", "--m", "2", "--max-len", "0", "--max-n", "2"],
    ["check-d2", "--max-len", "0", "--max-n", "2"],
    ["h0", "--m", "3", "--max-len", "0", "--max-n", "2"],
    ["ideal-dim", "--m", "2", "--max-len", "0"],
])
def test_unread_flags_at_the_ends_of_their_ranges_are_accepted(capsys, argv):
    assert cli.main([argv[0], str(FIXTURES / "square_d4.quiver"), *argv[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["vertices"]


def test_relations_outside_r2_report_no_bound(tmp_path, capsys):
    f = tmp_path / "short.quiver"
    f.write_text("vertex v\narrow a : v -> v\nrelation r : v -> v = a\n")
    assert cli.main(["report", str(f), "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ideal"] == {"admissible_N": None}


def test_seed_and_d2_samples_are_free_form_options(tmp_path, capsys):
    f = tmp_path / "old_options.quiver"
    f.write_text("vertex v\narrow a : v -> v\noption seed = x\noption d2_samples = -5\n")
    assert cli.main(["check-d2", str(f), "--m", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["input"]["options"] == {"d2_samples": -5, "seed": "x"}
    assert payload["checks"] == {"d_squared_b": "ok", "d_squared_gamma": "ok"}


def test_readme_flags_match_the_parser(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    parsed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    line = re.search(r"Flags: (.*?)\.\n", readme, re.DOTALL).group(1)
    assert set(re.findall(r"--[a-z][a-z-]*", line)) == parsed


def test_free_form_option_is_allowed(tmp_path):
    f = tmp_path / "note.quiver"
    f.write_text("vertex v\noption note = hello\n")
    res = run_cli("homology", str(f), "--m", "3")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["input"]["options"] == {"note": "hello"}


def test_input_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    f = tmp_path / "binary.quiver"
    f.write_bytes(b"\xff\xfevertex v\n")
    assert cli.main(["validate", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_output_into_a_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = cli.main(["validate", str(FIXTURES / "quaternion.quiver"), "--output", str(target)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.parent.exists()
