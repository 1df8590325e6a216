"""Command-line interface, exercised through click's test runner."""

import json

import pytest
from click.testing import CliRunner

from extsym.cli import main
from extsym.fileio import algebra_to_dict, catalog_to_dict, module_to_dict
from extsym.instances import a2_catalog


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    from extsym.instances import a2_modules, a2_preprojective
    root = tmp_path_factory.mktemp("cli")
    alg = a2_preprojective()
    mods = a2_modules(alg)
    paths = {"algebra": root / "alg.json",
             "catalog": root / "cat.json"}
    paths["algebra"].write_text(json.dumps(algebra_to_dict(alg)))
    paths["catalog"].write_text(
        json.dumps(catalog_to_dict(a2_catalog(alg, 2))))
    for lab, m in mods.items():
        paths[lab] = root / f"{lab}.json"
        paths[lab].write_text(json.dumps(module_to_dict(m)))
    bad = dict(algebra_to_dict(alg))
    bad["surprise"] = True
    paths["bad_algebra"] = root / "bad.json"
    paths["bad_algebra"].write_text(json.dumps(bad))
    return {k: str(v) for k, v in paths.items()}


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestAlgebraCheck:
    def test_pass(self, files):
        r = run("algebra", "check", "--algebra", files["algebra"])
        assert r.exit_code == 0
        assert "ok" in r.output

    def test_json(self, files):
        r = run("algebra", "check", "--algebra", files["algebra"], "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["verdict"] == "pass"
        assert payload["vertices"] == ["1", "2"]

    def test_rejects_unknown_key(self, files):
        r = run("algebra", "check", "--algebra", files["bad_algebra"])
        assert r.exit_code == 1

    def test_rejects_unknown_key_json(self, files):
        r = run("algebra", "check", "--algebra", files["bad_algebra"],
                "--json")
        assert r.exit_code == 1
        assert json.loads(r.output)["verdict"] == "error"


class TestExtDim:
    def test_base_pair(self, files):
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"], "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload == {"dim_ext_mn": 1, "dim_ext_nm": 1}

    def test_needs_two_modules(self, files):
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", files["S1"])
        assert r.exit_code == 1

    def test_seed_accepted(self, files):
        r = run("ext", "dim", "--algebra", files["algebra"],
                "--module", files["P1"], "--module", files["P2"],
                "--seed", "7", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output) == {"dim_ext_mn": 0, "dim_ext_nm": 0}


class TestChi:
    def test_grassmann_chi(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    def test_flag_chi(self, files):
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--type", "0,1", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    def test_flag_chi_other_order(self, files):
        r = run("flag", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--type", "1,0", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 0

    def test_explicit_primes(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["S1"], "--dims", "1,0",
                "--primes", "2,3,5,7,11", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["chi"] == 1

    def test_too_few_primes(self, files):
        r = run("grassmann", "chi", "--algebra", files["algebra"],
                "--module", files["P1"], "--dims", "0,1",
                "--primes", "2", "--json")
        assert r.exit_code == 1


class TestDeltaAndStratify:
    def test_delta_flag_mode(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "vertex:1,vertex:2",
                "--json")
        assert r.exit_code == 0
        table = json.loads(r.output)["table"]
        vals = {tuple(row["type"]): row["value"] for row in table}
        assert vals == {(0, 1): 1, (1, 0): 0}

    def test_simples_from_catalog_labels(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P2"], "--catalog", files["catalog"],
                "--simples", "S1,S2", "--json")
        assert r.exit_code == 0

    def test_unknown_simple_token(self, files):
        r = run("delta", "--algebra", files["algebra"],
                "--module", files["P1"], "--simples", "nope")
        assert r.exit_code == 1

    def test_stratify(self, files):
        r = run("stratify", "--algebra", files["algebra"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        classes = json.loads(r.output)["classes"]
        assert sorted(map(sorted, classes)) == \
            sorted([["P1"], ["P2"], ["S1"], ["S2"], ["S1+S2"],
                    ["S1+S1"], ["S2+S2"]])


class TestVerify:
    def test_f2_pass(self, files):
        r = run("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"

    def test_f1_pass(self, files):
        r = run("verify", "f1", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--catalog", files["catalog"],
                "--simples", "vertex:1,vertex:2", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"

    def test_verify_needs_catalog(self, files):
        r = run("verify", "f2", "--algebra", files["algebra"],
                "--module", files["S1"], "--module", files["S2"],
                "--simples", "vertex:1,vertex:2")
        assert r.exit_code == 1


class TestToplevel:
    def test_selftest(self):
        r = run("selftest", "--json")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["verdict"] == "pass"

    def test_audit_subset(self):
        r = run("audit", "--instances", "II,III", "--json")
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"] == "pass"
