import hashlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import bianchi
from bianchi import cli, verify as checks
from bianchi.cli import main
from bianchi.hecke import eigensystems
from bianchi.heilbronn import heilbronn_family
from bianchi.quadints import Field, parse_element
from bianchi.symbols import POINT_LIMIT, SymbolSpace, point_count_formula, symbol_space
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


# sha256 of heilbronn --tie high --verify at one eta of norm 26-50 per field
# (each with different low and high families), pinned before the families
# moved to int rows
HEILBRONN_PINS = [
    (1, "5+w", "5949a1f7d8cd142a032ccfbed8960cde8213b544488026526799abba37103846"),
    (2, "3+3w", "6db0b42f3a2cf5e2f84628eb6651431c7a4953928416e40d222e858f11e6314c"),
    (3, "6+w", "9ef9c5b75982f95778051496e39191eb45b4deb13b76c38036c6b0e48b301215"),
    (7, "5+w", "f085506bc86d0330e2612e808817208b57b52d256de9807f31fd1538d2864cba"),
    (11, "4+2w", "5ceded7cc18ecc53893474185418d47af63f72a857e9a9c44b77e7b3702608c1"),
]


@pytest.mark.parametrize("d, eta, digest", HEILBRONN_PINS,
                         ids=[f"d{p[0]}-{p[1]}" for p in HEILBRONN_PINS])
def test_heilbronn_pins(runner, d, eta, digest):
    result = invoke(runner, "heilbronn", "--d", str(d), "--eta", eta, "--tie", "high", "--verify")
    assert json.loads(result.stdout)["telescoping"] is True
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_invariant_failure_exits_3(runner, monkeypatch):
    import bianchi.heilbronn as hb
    from bianchi.quadints import InvariantError

    def broken(fld, starts, tie):
        raise InvariantError("forced")

    monkeypatch.setattr(hb, "_chains", broken)
    hb.heilbronn_family.cache_clear()
    try:
        result = runner.invoke(main, ["heilbronn", "--d", "7", "--eta", "3"])
    finally:
        hb.heilbronn_family.cache_clear()
    assert result.exit_code == 3
    assert "invariant failed: forced" in result.stderr
    assert result.stdout == ""


def test_tie_rule_only_on_heilbronn(runner):
    # the family is the output of heilbronn; operators and tables do not
    # depend on it (Merel's condition, checked by the telescoping certificate)
    doc = payload(runner, "heilbronn", "--d", "2", "--eta", "3", "--tie", "high", "--verify")
    assert doc["tie"] == "high" and doc["telescoping"] is True
    invoke(runner, "hecke", "--d", "11", "--level", "1-2w", "--eta", "2", "--tie", "high", code=2)
    invoke(runner, "fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "2",
           "--tie", "high", code=2)
    invoke(runner, "eval", "--d", "11", "--level", "1-2w", "--norm-bound", "2",
           "--z", "0.1i", "--t", "1.0", "--tie", "high", code=2)


def test_zero_level_refused(runner, tmp_path):
    table_file = tmp_path / "zero.json"
    table_file.write_text('{"d": 11, "level": "0", "norm_bound": 0, "a": []}')
    point = ("--z", "0.1i", "--t", "1.0")
    for args in (("space", "--level", "0"), ("hecke", "--level", "0", "--eta", "2"),
                 ("eigen", "--level", "0"), ("fourier", "--level", "0", "--norm-bound", "2"),
                 ("eval", "--level", "0", *point),
                 # the table's level is read in place of --level
                 ("eval", "--level", "1-2w", "--table", str(table_file), *point)):
        result = invoke(runner, *args, "--d", "11", code=2)
        assert "--level '0': must be nonzero" in result.output, args


def test_negative_norm_bound_refused(runner):
    invoke(runner, "fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "-3", code=2)
    invoke(runner, "eval", "--d", "11", "--level", "1-2w", "--norm-bound", "-3",
           "--z", "0.1i", "--t", "1.0", code=2)


def test_eta_count_below_one_refused(runner):
    # refused by the option itself, before any eta is scanned
    point = ("--z", "0.1i", "--t", "1.0")
    for cmd in (("eigen",), ("fourier", "--norm-bound", "2"), ("eval", *point)):
        for count in ("0", "-3"):
            result = invoke(runner, *cmd, "--d", "11", "--level", "1-2w",
                            "--eta-count", count, code=2)
            assert f"Invalid value for '--eta-count': {count} is not in the range x>=1" \
                in result.output, (cmd, count)
            assert "not enough coprime etas" not in result.output


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


def test_eta_beyond_the_family_kernel_refused(runner):
    # a norm past heilbronn.NORM_LIMIT is refused by its norm alone, before
    # any work: factorize alone would spin in trial division on this one
    big = "123456789+987654321w"
    for args in (("heilbronn", "--d", "11", "--eta", big),
                 ("hecke", "--d", "11", "--level", "1-2w", "--eta", big)):
        result = invoke(runner, *args, code=2)
        assert f"family of {big} starts at least" in result.output, args
    for cmd in ("eigen", "fourier"):
        result = invoke(runner, cmd, "--d", "11", "--level", "1-2w", "--eta", big, code=2)
        assert f"--eta {big}: the family of {big} starts at least" in result.output, cmd
    result = invoke(runner, "heilbronn", "--d", "11", "--eta", "0", code=2)
    assert "determinant must be nonzero" in result.output


def test_eta_past_the_start_limit_refused_at_once(runner):
    # norm 9,003,003, far inside NORM_LIMIT: its family would start about
    # 9 million division chains (tens of GB), above heilbronn.START_LIMIT
    big = "3000+w"
    assert parse_element(Field.get(11), big).norm() == 9_003_003
    for args in (("heilbronn", "--d", "11", "--eta", big),
                 ("hecke", "--d", "11", "--level", "1-2w", "--eta", big),
                 ("hecke", "--d", "11", "--level", "1-2w", "--eta", "2",
                  "--commute-with", big),
                 ("eigen", "--d", "11", "--level", "1-2w", "--eta", big)):
        t0 = time.perf_counter()
        result = invoke(runner, *args, code=2)
        assert time.perf_counter() - t0 < 1.0, args
        assert "division chains, above the" in result.output, args


def test_level_past_the_point_limit_refused_at_once(runner):
    # d = 1 level 100 has about 69 million points; without the preflight its
    # code table alone would hold 10^8 int64 entries
    count = point_count_formula(Field.get(1), parse_element(Field.get(1), "100"))
    assert count > POINT_LIMIT
    for args in (("space", "--d", "1", "--level", "100"),
                 ("hecke", "--d", "1", "--level", "100", "--eta", "3"),
                 ("eigen", "--d", "1", "--level", "100")):
        t0 = time.perf_counter()
        result = invoke(runner, *args, code=2)
        assert time.perf_counter() - t0 < 1.0, args
        assert f"--level '100': level 100 has {count} points, above the {POINT_LIMIT} " \
            "admitted" in result.output, args


def test_bad_commute_with_refused(runner):
    # the messages and exit code of the per-eta commands this replaced, with
    # and without --oracle; the --eta value is checked ahead of the others
    base = ("hecke", "--d", "11", "--level", "1-2w", "--eta", "2")
    cases = [("1-2w", "--commute-with '1-2w': eta must be coprime to the level"),
             ("0", "--commute-with '0': eta must be nonzero"),
             ("xyz", "--commute-with 'xyz': cannot parse element 'xyz'")]
    for extra in ((), ("--oracle",)):
        for text, message in cases:
            result = invoke(runner, *base, *extra, "--commute-with", "3",
                            "--commute-with", text, code=2)
            assert result.output.rstrip().endswith(f"Error: {message}"), (extra, text)
    result = invoke(runner, "hecke", "--d", "11", "--level", "1-2w", "--eta", "1-2w",
                    "--commute-with", "xyz", code=2)
    assert result.output.rstrip().endswith("Error: eta must be coprime to the level")


def test_one_point_move_per_level_command(runner, monkeypatch):
    # a hecke command moves its points once for all its operators, and so
    # does eigensystems for its eight; the space is built before counting
    fld = Field.get(11)
    symbol_space(fld, parse_element(fld, "1-3w"))
    space = symbol_space(fld, parse_element(fld, "1-2w"))
    rows = []
    act_points = SymbolSpace.act_points

    def counted(self, gens, moves):
        rows.append(len(moves))
        return act_points(self, gens, moves)

    monkeypatch.setattr(SymbolSpace, "act_points", counted)
    etas = ["2", "w", "1-w", "2+w"]
    invoke(runner, "hecke", "--d", "11", "--level", "1-3w", "--eta", etas[0],
           *(a for e in etas[1:] for a in ("--commute-with", e)))
    assert rows == [sum(len(heilbronn_family(parse_element(fld, e))) for e in etas)]
    rows.clear()
    table = eigensystems(space, checks._coprime_etas(fld, space.level, 8))
    assert len(table.etas) == 8 and table.systems and len(rows) == 1


@pytest.mark.parametrize("d, level, eta", [(7, "2+4w", "1-2w"), (11, "1-2w", "3")],
                         ids=["d7-2+4w-eta1-2w", "d11-1-2w-eta3"])
def test_hecke_oracle_beyond_search_box(runner, d, level, eta):
    # test_hecke.coset_reps_bruteforce misses a coset at both at budget 5
    doc = payload(runner, "hecke", "--d", str(d), "--level", level, "--eta", eta, "--oracle")
    assert doc["oracle_agrees"] is True


# sha256 of the hecke JSON for the first three coprime etas (the operator and
# two commutation checks) at levels survey does not reach: weight 2 at the
# level-6 spaces whose quotient map has denominator 2, weight 4 at norm 9-10 and
# weight 6
HECKE_PINS = [
    (2, "6", 2, "3-w", "3+w", "3-2w",
     "a5fe309ada0e665f36a486d0ee5e70b0061bf3e6114bc0c0984078aa1c1c3bcc"),
    (7, "6", 2, "1-2w", "1+2w", "3-2w",
     "b418d0f7b7cc1852e32639a3a411922d96729d0c18b698a6894ba3c82d6fcb51"),
    (11, "6", 2, "1+w", "2-w", "1-2w",
     "21209af1116b7754357e740a6fe6a329bece8c223beea28a0aa2ac0515573ea5"),
    (1, "3+w", 4, "2+w", "3", "3-2w",
     "d52cf68d4092d04becf2a10552a418f500ca9d84fd8526cd48b89e4b70d9da88"),
    (2, "1+2w", 4, "w", "1+w", "2",
     "c34ec3656a2246bfad3843a94ae6bf92eb1a031f7036e5b9339f8275d31f3f91"),
    (3, "3", 4, "2", "3-2w", "3-w",
     "837c13cb17a4ba13ecb4b8d09e38a4d6b9285112e191ed596f13837bd4205c24"),
    (7, "3", 4, "w", "1-w", "1+w",
     "fb61dc57b8e454c81df415d8d67046ee12cee18342d440b9eba9b109e8266a0c"),
    (11, "2+w", 4, "w", "2", "1+w",
     "76cb311d5c8bbf7656d1e7bec5ebddc8a43202d42312d04a488678d7cea02464"),
    (7, "3+w", 6, "w", "2-w", "2+w",
     "89f816f0fee288d0a2de2845d6c18a3d8087ea80bc78801c0882ef6997e199d8"),
]


@pytest.mark.parametrize("d, level, weight, e1, e2, e3, digest", HECKE_PINS,
                         ids=[f"d{p[0]}-{p[1]}-k{p[2]}" for p in HECKE_PINS])
def test_hecke_pins_beyond_survey(runner, d, level, weight, e1, e2, e3, digest):
    result = invoke(runner, "hecke", "--d", str(d), "--level", level, "--weight", str(weight),
                    "--eta", e1, "--commute-with", e2, "--commute-with", e3)
    assert json.loads(result.stdout)["commutes"] == {e2: True, e3: True}
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


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


# sha256 of eval at the reference level (default norm bound 40), t = 0.5
# and 2.0 among the heights, and of one eval --table on a norm-30 table;
# pinned before the Bessel factors were vectorised.  perfbench compares
# evaluations only to 1e-9, so these hold the floats to bit-identity
EVAL_PINS = [
    ("0.1+0.2i", "0.5", "7540d47524383a0e7817dd73caafb68a8c105d837cc49d13508ec556c633af91"),
    ("-0.3+0.45i", "2.0", "16582565998c14325dd0e1d1e9b5c29fb2164be461f049f18a37f3300a795f29"),
    ("0.25-0.1i", "1.0", "f3b858893a2de843432ee2cdc9b0c7a87a2148d01ac7cf24386e68189f6704be"),
    ("0.4i", "0.75", "81c34012c0803be6027b3d2904ba20318ba77d07d3a0c00e31778d9bbc74542e"),
    ("-0.05-0.37i", "1.6", "b0c0ee0eec42f27d68409cd3bf9102bff52b811dcbd6114ac38c8058aa652cd2"),
]


@pytest.mark.parametrize("z, t, digest", EVAL_PINS, ids=[f"z{p[0]}-t{p[1]}" for p in EVAL_PINS])
def test_eval_pins(runner, z, t, digest):
    result = invoke(runner, "eval", "--d", "11", "--level", "1-2w", "--z", z, "--t", t)
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_eval_table_pin(runner, tmp_path):
    table_file = tmp_path / "table.json"
    invoke(runner, "fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "30",
           "--out", str(table_file))
    result = invoke(runner, "eval", "--table", str(table_file), "--z", "0.15-0.35i", "--t", "0.6")
    assert (hashlib.sha256(result.stdout.encode()).hexdigest()
            == "d772b4d057f03999ebe8353957e49b6210fd4350dbe017c460f0ea05c4f13132")


def test_eval_empty_table(runner, tmp_path):
    table_file = tmp_path / "empty.json"
    table_file.write_text('{"d": 11, "level": "1-2w", "norm_bound": 0, "a": []}')
    doc = payload(runner, "eval", "--table", str(table_file), "--z", "0.3i", "--t", "1.5")
    assert doc["components"] == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_eval_table_at_the_float_limit(runner, tmp_path):
    # a norm bound just below the float maximum: the Bessel bound underflows
    # at once, and the tail must stop there instead of turning into NaN
    table_file = tmp_path / "far.json"
    table_file.write_text(json.dumps({"d": 11, "level": "1-2w",
                                      "norm_bound": int(sys.float_info.max) - 1,
                                      "a": [{"alpha": "1", "re": 1.0}]}))
    result = invoke(runner, "eval", "--table", str(table_file), "--z", "0.3i", "--t", "1.5")

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(result.stdout, parse_constant=refuse)
    assert math.isfinite(doc["tail_estimate"])
    assert all(math.isfinite(x) for pair in doc["components"] for x in pair)


def test_eval_bad_point(runner, tmp_path):
    table_file = tmp_path / "empty.json"
    table_file.write_text('{"d": 11, "level": "1-2w", "norm_bound": 0, "a": []}')
    invoke(runner, "eval", "--table", str(table_file), "--z", "oops", "--t", "1.0", code=2)
    invoke(runner, "eval", "--table", str(table_file), "--z", "0.1i", "--t", "-1.0", code=2)
    # non-finite coordinates would print NaN/Infinity, which is not JSON
    invoke(runner, "eval", "--table", str(table_file), "--z", "nan", "--t", "1.0", code=2)
    invoke(runner, "eval", "--table", str(table_file), "--z", "1e400", "--t", "1.0", code=2)
    invoke(runner, "eval", "--table", str(table_file), "--z", "0.1i", "--t", "inf", code=2)


def test_eval_bad_point_refused_before_the_table_is_built(runner, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the eigensystems were computed for a bad point")

    monkeypatch.setattr(cli, "_rational_form", unreachable)
    args = ("eval", "--d", "11", "--level", "1-2w", "--norm-bound", "250")
    assert "--z" in invoke(runner, *args, "--z", "nope", "--t", "1", code=2).stderr
    assert "--t" in invoke(runner, *args, "--z", "0.1i", "--t", "-1", code=2).stderr


def test_eval_refuses_a_height_whose_square_overflows(runner):
    # the series is scaled by t**2: past about 1.34e154 that raises OverflowError
    args = ("eval", "--d", "11", "--level", "1-2w", "--norm-bound", "2", "--z", "0.1+0.1i")
    result = invoke(runner, *args, "--t", "1e200", code=2)
    assert "--t" in result.stderr and "overflows" in result.stderr
    doc = payload(runner, *args, "--t", "1e154")
    assert doc["t"] == 1e154 and math.isfinite(doc["tail_estimate"])


def test_eval_bad_table(runner, tmp_path):
    table_file = tmp_path / "bad.json"
    for doc in ('{"d": 5, "level": "1", "norm_bound": 0, "a": []}',
                '{"d": 11, "level": "zz", "norm_bound": 0, "a": []}',
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1q", "re": 1.0}]}',
                '{"d": 11, "level": "1-2w"}',
                '[1, 2]',
                'not json {',
                '{"d": 11, "level": 3, "norm_bound": 1, "a": []}',
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1"}]}',
                # JSON booleans are not integers, even though Python's bool is an int
                '{"d": true, "level": "1+w", "norm_bound": 0, "a": []}',
                '{"d": 11, "level": "1-2w", "norm_bound": true, "a": []}',
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1", "re": true}]}',
                '{"d": 11, "level": "1-2w", "norm_bound": -3, "a": []}',
                # an int past the float range, where math.isfinite raises
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1", "re": 1%s}]}'
                % ("0" * 400),
                # a norm bound past the float range, which the tail estimate
                # could not take into floats
                '{"d": 11, "level": "1-2w", "norm_bound": 1%s, "a": []}' % ("0" * 400),
                # alpha 0, which has no term in the series
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "0", "re": 1.0}]}',
                # one alpha twice, in two spellings
                '{"d": 11, "level": "1-2w", "norm_bound": 1, "a": [{"alpha": "1", "re": 1.0}, '
                '{"alpha": "1+0w", "re": 2.0}]}',
                # an alpha past the norm bound, a term the tail estimate also counts
                '{"d": 11, "level": "1-2w", "norm_bound": 3, "a": [{"alpha": "9", "re": 1.0}]}'):
        table_file.write_text(doc)
        invoke(runner, "eval", "--table", str(table_file), "--z", "0.3i", "--t", "1.5", code=2)


def test_quotient_map_readers_leave_the_shared_rows_alone(runner):
    # at weight 2 the points of a live two-term class share their root's row
    # of the int quotient map: each point has one term, x*J reads x's row
    # with x's coefficient, x*S the same row with the opposite coefficient.
    # The map's arrays are read-only, so no reader can write to a shared
    # row, and no command changes them
    d, level = checks.REFERENCE_FORM[:2]
    fld = Field.get(d)
    space = symbol_space(fld, parse_element(fld, level))
    npts = len(space.points)
    S, J = space.sum_words[0][1].row(), space.J.row()
    images = space.act_points(range(npts), [S, J]).tolist()
    qmap = space.qmap
    assert qmap.row.shape == qmap.coef.shape == (npts + 1, 1)
    for arr in (qmap.matrix, qmap.row, qmap.coef):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    row, coef = qmap.row[:, 0].tolist(), qmap.coef[:, 0].tolist()
    shared = 0
    for i, (s_img, j_img) in enumerate(images):
        assert (row[s_img], coef[s_img]) == (row[i], -coef[i])
        assert qmap.vector(s_img) == {k: -a for k, a in qmap.vector(i).items()}
        assert (row[j_img], coef[j_img]) == (row[i], coef[i])
        if coef[i]:
            shared += j_img != i
    assert shared > 0
    snapshot = [arr.tobytes() for arr in (qmap.matrix, qmap.row, qmap.coef)] + [qmap.den]
    at = ("--d", str(d), "--level", level)
    invoke(runner, "space", *at, "--full")
    invoke(runner, "hecke", *at, "--eta", "2", "--oracle", "--commute-with", "w")
    invoke(runner, "eigen", *at, "--eta-count", "4")
    invoke(runner, "fourier", *at, "--norm-bound", "5")
    invoke(runner, "eval", *at, "--norm-bound", "5", "--z", "0.1+0.2i", "--t", "1.0")
    assert checks.check_coefficient_identity(norm_bound=6).ok
    assert symbol_space(fld, parse_element(fld, level)) is space and space.qmap is qmap
    assert [arr.tobytes() for arr in (qmap.matrix, qmap.row, qmap.coef)] + [qmap.den] == snapshot


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
    # every name is checked before the first check runs
    result = invoke(runner, "verify", "--check", "dimension-identity", "--check", "nope",
                    code=2)
    assert "unknown check: nope" in result.stderr and "running" not in result.stderr
    result = invoke(runner, "verify", "--inject-corruption", "--check", "nope", code=2)
    assert "unknown check: nope" in result.stderr and result.stdout == ""


# sha256 of the quick report with each check's seconds dropped: pins every
# check's detail and data
QUICK_REPORT_SHA256 = "a8324e1768e7cde3945cb4c489f33f7b91669f494c6a43f649a2b6f6f2bbdf5d"


def test_verify_quick_suite(runner):
    doc = payload(runner, "verify", "--quick")
    assert doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == list(checks.CHECKS)
    for check in doc["checks"]:
        del check["seconds"]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == QUICK_REPORT_SHA256


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


def test_verify_negative_control_under_python_O(run_optimized):
    # the corrupted class is found by comparing path sums, not by an assert
    out = run_optimized(
        "from bianchi import verify\n"
        "result = verify.check_telescoping(inject=True)\n"
        "print('control:', result.ok, result.data['broken_classes'])\n"
    )
    assert out == ["control: True [0]"], out


@pytest.mark.parametrize("damage", ["swap", "drop"])
def test_point_counts_names_the_first_differing_pair(monkeypatch, damage):
    real = checks.enumerate_points

    def damaged(fld, nu):
        pts = real(fld, nu)
        if len(pts) > 2:
            if damage == "swap":
                pts[1], pts[2] = pts[2], pts[1]
            else:
                pts.pop()
        return pts

    monkeypatch.setattr(checks, "enumerate_points", damaged)
    result = checks.check_point_counts(norm_bound=3)
    assert result.ok is False
    fail = result.data["fail"]
    diff = fail["first_difference"]
    if damage == "swap":
        # the count alone cannot see a reordered list
        assert fail["enumerated"] == fail["formula"] == fail["brute"]
        assert diff["index"] == 1 and diff["enumerated"] != diff["brute"]
    else:
        assert diff["index"] == fail["enumerated"] == fail["brute"] - 1
        assert diff["enumerated"] is None and len(diff["brute"]) == 2


# one d = 7 and one d = 11 level, each with a cusp form, and one weight-4
# level, whose build settles its S and J classes in stage 1
OPTIMIZED_RUNS = [
    ["space", "--d", "7", "--level", "2+4w", "--full"],
    ["hecke", "--d", "11", "--level", "2+w", "--weight", "4", "--eta", "w",
     "--commute-with", "2", "--commute-with", "1+w"],
    ["hecke", "--d", "7", "--level", "2+4w", "--eta", "1-2w", "--commute-with", "3"],
    ["space", "--d", "11", "--level", "1-2w", "--full"],
    ["hecke", "--d", "11", "--level", "1-2w", "--eta", "2", "--commute-with", "w"],
    ["hecke", "--d", "11", "--level", "6", "--eta", "1+w", "--commute-with", "2-w",
     "--commute-with", "1-2w"],
    ["hecke", "--d", "11", "--level", "1-3w", "--eta", "2", "--commute-with", "w",
     "--commute-with", "1-w", "--commute-with", "2+w"],
    ["hecke", "--d", "7", "--level", "2+4w", "--eta", "1-2w", "--oracle"],
    ["eigen", "--d", "11", "--level", "1-2w"],
    ["fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "20"],
    ["heilbronn", "--d", "7", "--eta", "3+w", "--tie", "high", "--verify"],
    ["eval", "--d", "11", "--level", "1-2w", "--norm-bound", "20", "--z", "0.1+0.2i",
     "--t", "0.7"],
]


def test_same_output_under_python_O():
    # the build must not lean on asserts, which python -O strips
    script = (
        "import sys\n"
        "from bianchi.cli import main\n"
        f"for args in {OPTIMIZED_RUNS!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "sys.stderr.write(f'optimize={sys.flags.optimize}')\n"
    )
    # no bytecode: a checkout that ran the tests would otherwise import faster
    env = {"PYTHONPATH": str(Path(bianchi.__file__).parents[1]), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    runs = {}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        runs[tuple(flags)] = proc
    plain, optimized = runs[()], runs[("-O",)]
    # fourier logs its system to stderr ahead of the flag
    assert plain.stderr.endswith(b"optimize=0") and optimized.stderr.endswith(b"optimize=1")
    assert plain.stderr[:-1] == optimized.stderr[:-1]
    assert plain.stdout == optimized.stdout
    # one document per run, each closed by a "}" line (heilbronn has no level)
    assert plain.stdout.count(b"\n}\n") == len(OPTIMIZED_RUNS)


# commands that stop at exact results or coefficient tables, then the two
# that need Bessel values: scipy loads on the first of those and not before
SCIPY_FREE_RUNS = [
    ["space", "--d", "11", "--level", "1-2w"],
    ["hecke", "--d", "11", "--level", "1-2w", "--eta", "2", "--commute-with", "w"],
    ["hecke", "--d", "7", "--level", "1-2w", "--weight", "4", "--eta", "w",
     "--commute-with", "2"],
    ["eigen", "--d", "11", "--level", "1-2w"],
    ["heilbronn", "--d", "11", "--eta", "1+w", "--verify"],
    ["fourier", "--d", "11", "--level", "1-2w", "--norm-bound", "20"],
]

# verify --check bessel's data, as printed before scipy was loaded lazily
BESSEL_DATA = {"derivative_defect": 9.813660994950624e-11, "err_k0": 1.1102230246251565e-16,
               "err_k1": 0.0}


def scipy_after_each(runs):
    # a fresh interpreter imports bianchi.cli, runs each command through
    # cli.main and reports whether scipy and numpy.ma are loaded, as one
    # [scipy, numpy.ma] pair after the import, then one after each command
    script = (
        "import json, sys\n"
        "from bianchi.cli import main\n"
        "def loaded_now():\n"
        "    return ['scipy' in sys.modules, 'numpy.ma' in sys.modules]\n"
        "loaded = [loaded_now()]\n"
        f"for args in {runs!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "    loaded.append(loaded_now())\n"
        "sys.stderr.write('\\n' + json.dumps(loaded))\n"
    )
    env = {"PYTHONPATH": str(Path(bianchi.__file__).parents[1]), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stderr.decode().splitlines()[-1])


def test_scipy_loads_only_for_bessel_values(tmp_path):
    z, t, digest = EVAL_PINS[0]
    eval_out, verify_out = tmp_path / "eval.json", tmp_path / "verify.json"
    runs = SCIPY_FREE_RUNS + [["eval", "--d", "11", "--level", "1-2w", "--z", z, "--t", t,
                               "--out", str(eval_out)]]
    loaded = scipy_after_each(runs)
    assert [scipy for scipy, _ in loaded] == [False] * (1 + len(SCIPY_FREE_RUNS)) + [True]
    # numpy.ma (10-14 ms to import) stays unloaded too: np.unique(axis=0)
    # would load it, symbols._distinct_rows does without
    assert [ma for _, ma in loaded[:1 + len(SCIPY_FREE_RUNS)]] == \
        [False] * (1 + len(SCIPY_FREE_RUNS))
    assert hashlib.sha256(eval_out.read_bytes()).hexdigest() == digest
    runs = [["verify", "--check", "bessel", "--out", str(verify_out)]]
    assert [scipy for scipy, _ in scipy_after_each(runs)] == [False, True]
    (check,) = json.loads(verify_out.read_text())["checks"]
    assert check["ok"] is True and check["data"] == BESSEL_DATA
