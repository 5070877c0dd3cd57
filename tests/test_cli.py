import json
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dgquiver.cli", *argv],
        capture_output=True,
        text=True,
    )


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
