import json

import pytest
from click.testing import CliRunner

from bianchi import verify as checks
from bianchi.cli import main
from bianchi.verify import CheckResult


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, code=0):
    result = runner.invoke(main, list(args))
    assert result.exit_code == code, result.output + str(result.exception)
    return result


def payload(runner, *args):
    result = invoke(runner, *args)
    return json.loads(result.stdout)


def test_space_report(runner):
    doc = payload(runner, "space", "--d", "1", "--level", "1+1w")
    assert doc["points"] == 3
    assert doc["dim"] == 1
    assert doc["cuspidal_dim"] == 0
    assert doc["cusps"] == 2
    assert doc["level"] == "1+w"


def test_space_trivial_level(runner):
    doc = payload(runner, "space", "--d", "1", "--level", "1")
    assert doc["points"] == 1
    assert doc["dim"] == 0
    assert doc["free_generators"] == []


def test_space_combined_level_spec(runner):
    merged = payload(runner, "space", "--level", "d=1,n=2+1w")
    split = payload(runner, "space", "--d", "1", "--level", "2+1w")
    assert merged == split


def test_space_full_lists_coordinates(runner):
    doc = payload(runner, "space", "--d", "1", "--level", "1+1w", "--full")
    coords = doc["basis_coordinates"]
    assert len(coords) == doc["points"]
    assert any(coords[k] for k in coords)


def test_space_bad_arguments(runner):
    invoke(runner, "space", "--d", "1", "--level", "zzz", code=2)
    invoke(runner, "space", "--level", "2+1w", code=2)
    invoke(runner, "space", "--d", "5", "--level", "2", code=2)
    invoke(runner, "space", "--d", "2", "--level", "d=1,n=2", code=2)
    invoke(runner, "space", "--d", "1", "--level", "2", "--weight", "3", code=2)


def test_heilbronn_report(runner):
    doc = payload(runner, "heilbronn", "--d", "1", "--eta", "1+1w", "--verify")
    assert doc["count"] == 4
    assert doc["classes"] == 3
    assert doc["telescoping"] is True
    assert doc["cache"] == "off"
    assert ["1", "0", "0", "1+w"] in doc["matrices"]


def test_heilbronn_has_no_disk_cache(runner, tmp_path, monkeypatch):
    args = ("heilbronn", "--d", "2", "--eta", "1+1w", "--verify")
    plain = invoke(runner, *args).stdout
    monkeypatch.setenv("BIANCHI_CACHE_DIR", str(tmp_path))
    assert invoke(runner, *args).stdout == plain
    assert json.loads(plain)["cache"] == "off"
    assert not list(tmp_path.iterdir())
    invoke(runner, *args, "--cache-dir", str(tmp_path), code=2)


def test_hecke_with_oracle_and_commutation(runner):
    doc = payload(runner, "hecke", "--d", "1", "--level", "2+1w",
                  "--eta", "1+1w", "--weight", "2", "--oracle",
                  "--commute-with", "3")
    assert doc["oracle_agrees"] is True
    assert doc["commutes"] == {"3": True}
    assert doc["matrix"]["entries"] == [[0, 0, "3"]]
    assert doc["cuspidal_dim"] == 0


def test_hecke_rejects_bad_eta(runner):
    invoke(runner, "hecke", "--d", "1", "--level", "2+1w", "--eta", "2+1w", code=2)
    invoke(runner, "hecke", "--d", "1", "--level", "2+1w", "--eta", "0", code=2)


def test_eigen_reference_level(runner):
    doc = payload(runner, "eigen", "--d", "11", "--level", "1-2w", "--eta-count", "4")
    assert doc["cuspidal_dim"] == 1
    (system,) = doc["systems"]
    assert system["label"] == "a"
    assert system["dim"] == 1
    assert system["eigenvalues"] == {"w": "-1", "1-w": "-1", "2": "0", "1+w": "1"}
    assert system["vector"] is not None
    assert system["functional"] is not None


def test_eigen_explicit_etas(runner):
    doc = payload(runner, "eigen", "--d", "11", "--level", "1-2w",
                  "--eta", "w", "--eta", "2")
    assert doc["etas"] == ["w", "2"]
    invoke(runner, "eigen", "--d", "11", "--level", "1-2w", "--eta", "1-2w", code=2)


def test_fourier_table_shape(runner):
    doc = payload(runner, "fourier", "--d", "11", "--level", "1-2w",
                  "--norm-bound", "5")
    assert set(doc) == {"d", "level", "norm_bound", "a"}
    table = {row["alpha"]: row["re"] for row in doc["a"]}
    assert table["1"] == 1.0
    assert table["w"] == -1.0
    assert table["2"] == 0.0
    assert all(row["im"] == 0.0 for row in doc["a"])


def test_fourier_deterministic(runner):
    args = ("fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "4")
    assert invoke(runner, *args).stdout == invoke(runner, *args).stdout


def test_fourier_needs_rational_system(runner):
    # cuspidal space at this level has no rational eigensystem
    invoke(runner, "fourier", "--d", "7", "--level", "5", "--norm-bound", "3", code=2)


def test_eval_matches_saved_table(runner, tmp_path):
    table_file = tmp_path / "table.json"
    invoke(runner, "fourier", "--d", "11", "--level", "1-2w",
           "--norm-bound", "8", "--out", str(table_file))
    direct = payload(runner, "eval", "--d", "11", "--level", "1-2w",
                     "--norm-bound", "8", "--z", "0.1+0.2i", "--t", "1.0")
    loaded = payload(runner, "eval", "--table", str(table_file),
                     "--z", "0.1+0.2i", "--t", "1.0")
    assert direct == loaded
    assert direct["tail_estimate"] > 0


def test_eval_empty_table(runner, tmp_path):
    table_file = tmp_path / "empty.json"
    table_file.write_text('{"d": 11, "level": "1-2w", "norm_bound": 0, "a": []}')
    doc = payload(runner, "eval", "--table", str(table_file), "--z", "0.3i", "--t", "1.5")
    assert doc["components"] == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_eval_bad_point(runner, tmp_path):
    table_file = tmp_path / "empty.json"
    table_file.write_text('{"d": 11, "level": "1-2w", "norm_bound": 0, "a": []}')
    invoke(runner, "eval", "--table", str(table_file), "--z", "oops", "--t", "1.0", code=2)
    invoke(runner, "eval", "--table", str(table_file), "--z", "0.1i", "--t", "-1.0", code=2)


def test_eval_bad_table(runner, tmp_path):
    table_file = tmp_path / "bad.json"
    for doc in ('{"d": 5, "level": "1", "norm_bound": 0, "a": []}',
                '{"d": 11, "level": "zz", "norm_bound": 0, "a": []}',
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1q", "re": 1.0}]}'):
        table_file.write_text(doc)
        invoke(runner, "eval", "--table", str(table_file), "--z", "0.3i", "--t", "1.5", code=2)


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "space.json"
    result = invoke(runner, "space", "--d", "1", "--level", "2", "--out", str(target))
    assert result.stdout == ""
    assert "wrote" in result.stderr
    assert json.loads(target.read_text())["points"] == 12


def test_verify_single_check(runner):
    doc = payload(runner, "verify", "--check", "bessel")
    assert doc["ok"] is True
    (entry,) = doc["checks"]
    assert entry["name"] == "bessel"
    assert entry["ok"] is True
    invoke(runner, "verify", "--check", "nope", code=2)


def test_verify_quick_suite(runner):
    doc = payload(runner, "verify", "--quick")
    assert doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == list(checks.CHECKS)


def test_verify_reports_failure_with_exit_3(runner, monkeypatch):
    def broken():
        return CheckResult("bessel", False, "forced failure", {"err_k0": 1.0}, 0.0)

    monkeypatch.setitem(checks.CHECKS, "bessel", broken)
    result = runner.invoke(main, ["verify", "--check", "bessel"])
    assert result.exit_code == 3
    doc = json.loads(result.stdout)
    assert doc["ok"] is False
    assert doc["checks"][0]["data"] == {"err_k0": 1.0}


def test_verify_negative_control(runner):
    doc = payload(runner, "verify", "--inject-corruption")
    assert doc["ok"] is True
    assert doc["checks"][0]["data"]["broken_classes"]
