"""End-to-end command line tests, driving main() in process.

Under pytest stdout is not a terminal, so the default output format is
JSON; text assertions pass --format text explicitly.
"""

import hashlib
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import clustercones
from clustercones.cli import main


@pytest.fixture()
def gr26_seed_path(tmp_path):
    from conftest import GR26_SEED

    path = tmp_path / "gr26.json"
    path.write_text(json.dumps(GR26_SEED))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_uvars_one_frozen_ratios(capsys):
    code, out, _ = run(
        capsys, ["uvars", "--type", "A1", "--frozen", "1", "--format", "text"]
    )
    assert code == 0
    assert "v(x1) = 1/(x1*x2)" in out
    assert "v(x2) = f1/(x1*x2)" in out


def test_default_format_is_json_off_terminal(capsys):
    code, payload = run_json(capsys, ["uvars", "--type", "A1", "--frozen", "1"])
    assert code == 0
    assert payload["legend"] == {"mutable": ["x1", "x2"], "frozen": ["f1"]}
    assert [row["expression"] for row in payload["uvars"]] == [
        "1/(x1*x2)",
        "f1/(x1*x2)",
    ]


def test_check_half_integral_counterexample_text(capsys):
    code, out, _ = run(
        capsys,
        ["check", "--type", "C2", "--ratio", "x1*x3*x5/(x2*x4*x6)",
         "--format", "text"],
    )
    assert code == 0
    assert "verdict: bounded" in out
    assert "lambda: 1/2 v(x2) + 1/2 v(x4) + 1/2 v(x6)" in out
    assert "integral: no" in out
    assert "subtraction-free: no" in out


def test_check_half_integral_counterexample_json(capsys):
    code, payload = run_json(
        capsys, ["check", "--type", "C2", "--ratio", "x1*x3*x5/(x2*x4*x6)"]
    )
    assert code == 0
    cert = payload["certificate"]
    assert cert["verdict"] == "bounded"
    assert cert["lambda"] == {"x2": "1/2", "x4": "1/2", "x6": "1/2"}
    assert cert["integral"] is False
    assert payload["subtraction_free"]["subtraction_free"] is False


def test_check_integral_ratio_has_chain(capsys):
    code, payload = run_json(
        capsys,
        ["check", "--gr", "2", "6", "--ratio", "p[14]*p[23]/(p[13]*p[24])"],
    )
    assert code == 0
    cert = payload["certificate"]
    assert cert["verdict"] == "bounded"
    assert cert["integral"] is True
    assert payload["subtraction_free"]["subtraction_free"] is True
    assert payload["subtraction_free"]["kind"] == "chain"


def test_check_unbounded_exits_one(capsys):
    code, payload = run_json(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*x2"],
    )
    assert code == 1
    cert = payload["certificate"]
    assert cert["verdict"] == "unbounded"
    # x1 * x2 = 1 + f1 grows like t^-1 along f1 = t^-1
    assert cert["ray"] == {"gamma": "x1", "step": 0, "beta": [0, -1],
                           "valuation": -1}
    assert "input_values" not in cert


def test_check_weight_obstruction_exits_one(capsys):
    code, payload = run_json(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*f1"],
    )
    assert code == 1
    assert payload["certificate"]["verdict"] == "not-weight-zero"
    assert payload["certificate"]["weight"] != "0"


@pytest.mark.parametrize("ratio,verdict", [
    ("1/(x1*x2)", "bounded"),
    ("x1*x2", "unbounded"),
])
def test_certificate_roundtrip(capsys, tmp_path, ratio, verdict):
    path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", ratio,
         "--certificate-out", str(path)],
    )
    assert code == (0 if verdict == "bounded" else 1)
    record = json.loads(path.read_text())
    assert record["certificate"]["verdict"] == verdict

    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 0
    assert payload["replayed"] is True
    assert payload["verdict"] == verdict


def test_tampered_certificate_fails_replay(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "1/(x1*x2)",
         "--certificate-out", str(path)],
    )
    record = json.loads(path.read_text())
    record["certificate"]["lambda"]["x1"] = "2"
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 1
    assert payload["replayed"] is False


@pytest.mark.parametrize("exponent", [-1.5, "-1", -1.0])
def test_non_integer_ratio_exponent_fails_replay(capsys, tmp_path, exponent):
    # the exponent used to be truncated by int(), so x1^-1.5 / x2 replayed
    # as the bounded 1/(x1*x2)
    path = tmp_path / "cert.json"
    run(capsys, ["check", "--type", "A1", "--frozen", "1", "--ratio",
                 "1/(x1*x2)", "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    record["certificate"]["ratio"]["x1"] = exponent
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 1
    assert payload["replayed"] is False


@pytest.mark.parametrize("tamper", [
    lambda record: record["certificate"].pop("verdict"),
    lambda record: record["certificate"]["lambda"].update(x1="abc"),
    lambda record: record["context"].pop("type"),
    lambda record: record.update(context=["catalog"]),
    lambda record: record["context"].update(type=5),
    lambda record: record.update(context={"kind": "seed", "seed": "seed.json"}),
    lambda record: record["certificate"].__setitem__("lambda", ["1"]),
    lambda record: record["certificate"].update(ratio=5),
    lambda record: record["certificate"]["lambda"].update(x1="1/0"),
    lambda record: record["certificate"]["lambda"].update(x1=float("inf")),
    5,
    None,
], ids=["missing-verdict", "non-numeric-lambda", "missing-context-type",
        "context-not-an-object", "catalog-type-not-a-string",
        "seed-not-an-object", "lambda-not-an-object", "ratio-not-an-object",
        "lambda-zero-denominator", "lambda-infinite", "file-is-a-number",
        "file-is-null"])
def test_malformed_certificate_is_a_usage_error(capsys, tmp_path, tamper):
    # a callable edits the record in place; anything else replaces it
    path = tmp_path / "cert.json"
    run(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "1/(x1*x2)",
         "--certificate-out", str(path)],
    )
    record = json.loads(path.read_text())
    if callable(tamper):
        tamper(record)
    else:
        record = tamper
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate")
    assert len(err.splitlines()) == 1


def test_null_certificate_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "null.json"
    path.write_text("null")
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2
    assert out == ""
    assert err == ("error: malformed certificate (TypeError: certificate "
                   "file is a NoneType, not an object)\n")


@pytest.mark.parametrize("tamper", [
    lambda ray: ray.update(valuation=1),
    lambda ray: ray.update(valuation=-2),
    lambda ray: ray["beta"].__setitem__(1, 0),
    lambda ray: ray["beta"].append(0),
    lambda ray: ray["beta"].__setitem__(1, -1.5),
    lambda ray: ray["beta"].__setitem__(1, "-1"),
    lambda ray: ray.update(step=0.5),
    lambda ray: ray.update(step="0"),
], ids=["valuation-positive", "valuation-wrong", "beta-moved", "beta-too-long",
        "beta-non-integer", "beta-string", "step-non-integer", "step-string"])
def test_tampered_unbounded_certificate_fails_replay(capsys, tmp_path, tamper):
    path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*x2",
         "--certificate-out", str(path)],
    )
    assert code == 1
    record = json.loads(path.read_text())
    tamper(record["certificate"]["ray"])
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 1
    assert payload["replayed"] is False


@pytest.mark.parametrize("tamper", [
    lambda cert: cert["ray"].pop("valuation"),
    lambda cert: cert["ray"].pop("beta"),
    lambda cert: cert.update(ray=[0, -1]),
], ids=["missing-valuation", "missing-beta", "ray-not-an-object"])
def test_malformed_ray_is_a_usage_error(capsys, tmp_path, tamper):
    path = tmp_path / "cert.json"
    run(capsys, ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*x2",
                 "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    tamper(record["certificate"])
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2
    assert out == ""
    assert "malformed certificate" in err


def test_unbounded_certificate_without_a_ray_fails_replay(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*x2",
                 "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    del record["certificate"]["ray"]
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 1
    assert payload["replayed"] is False


@pytest.mark.parametrize("alpha", [["1", "1"], ["1"], None],
                         ids=["outside-the-kernel", "wrong-length", "missing"])
def test_bad_weight_functional_fails_replay(capsys, tmp_path, alpha):
    path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        ["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*f1",
         "--certificate-out", str(path)],
    )
    assert code == 1
    record = json.loads(path.read_text())
    assert record["certificate"]["verdict"] == "not-weight-zero"
    if alpha is None:
        del record["certificate"]["alpha"]
    else:
        record["certificate"]["alpha"] = alpha
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 1
    assert payload["replayed"] is False


def test_cone_pluecker_rays(capsys):
    code, payload = run_json(
        capsys, ["cone", "--gr", "3", "6", "--subset", "pluecker"]
    )
    assert code == 0
    assert payload["count"] == 18
    assert len(payload["rays"]) == 18
    assert sorted(len(orbit) for orbit in payload["orbits"]) == [6, 6, 6]
    for ray in payload["rays"]:
        g = 0
        for e in ray["ratio"].values():
            g = gcd(g, e)
        assert g == 1
        assert all(name.startswith("p[") for name in ray["ratio"])


# sha256 of the JSON the command prints, computed before the double
# description inserted its rows in belt order; any change of order,
# lambda or ray list shows up here
CONE_GOLDEN = {
    "7": "80c1ef7713bd0833f1def7875acae74c34c5e31557a71c81eed3fd62aa74a589",
    "8": "524892cff0cbdce7cba8683ec4bde1651c7310e6a0b57987c8652deac860b816",
}


@pytest.mark.parametrize("n", sorted(CONE_GOLDEN))
def test_cone_pluecker_json_is_golden(capsys, n):
    argv = ["cone", "--gr", "3", n, "--subset", "pluecker", "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_GOLDEN[n]


# sha256 of the JSON of the other two Gr(3,8) cones, computed before the
# rays carried their u-exponents in sparse form
CONE_GR38_GOLDEN = {
    "deg2": "60418ff9be34223d9b33f8af16a3fdfa0a722db7e23cfe6f3f5f0d0844af800e",
    "all": "dda1d529d0166ecdda7d89fff103fa40987ae17592b3eb6f64a75dc2e0a7e770",
}


@pytest.mark.parametrize("subset", sorted(CONE_GR38_GOLDEN))
def test_cone_gr38_json_is_golden(capsys, subset):
    argv = ["cone", "--gr", "3", "8", "--subset", subset, "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_GR38_GOLDEN[subset]


# sha256 of the JSON of three certificates, computed before the degeneration
# rays came from one elimination per belt step and integral torus weights
# were walked over ints: a bounded and an unbounded Gr(3,8) ratio (the
# latter carries the ray's beta and valuation) and the A3+1 weight
# obstruction (alpha and weight)
CHECK_GOLDEN = {
    "gr38-bounded": (
        ["--gr", "3", "8", "--ratio", "p[145]*p[235]/(p[135]*p[245])"], 0,
        "9e1b18bbc27b18ee8ccdcdb2b426d44d783cacdd78c370aa919a6e366f66b4e3"),
    "gr38-unbounded": (
        ["--gr", "3", "8", "--ratio", "p[135]*p[245]/(p[145]*p[235])"], 1,
        "f2897623ed309d2d6acceca2f7ebe381066066e63b372c1d11ef11802f495725"),
    "a3-not-weight-zero": (
        ["--type", "A3", "--frozen", "1", "--ratio", "x1/x2"], 1,
        "6e2dd9cecafa97eb95e390a88254bbf4874cbcf05298fe52468af315afc68796"),
}


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_check_json_is_golden(capsys, case):
    args, want_code, digest = CHECK_GOLDEN[case]
    code, out, err = run(capsys, ["check", *args, "--format", "json"])
    assert code == want_code and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_importing_the_cli_does_not_load_the_process_pool():
    # only `verify --suite gr48 --jobs N` with N > 1 needs it
    src = Path(clustercones.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, clustercones.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_cone_ignores_a_cone_cache_variable(capsys, tmp_path, monkeypatch):
    # CLUSTER_CONE_CACHE once named a cache directory; cone must neither
    # read nor write it
    argv = ["cone", "--type", "A1", "--frozen", "1", "--format", "json"]
    monkeypatch.delenv("CLUSTER_CONE_CACHE", raising=False)
    code, plain, err = run(capsys, argv)
    assert code == 0 and err == ""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("CLUSTER_CONE_CACHE", str(blocker / "sub"))
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == plain
    assert list(tmp_path.iterdir()) == [blocker]


def test_cone_on_seed_file(capsys, tmp_path, gr26_seed_path):
    code, payload = run_json(capsys, ["cone", "--seed-file", gr26_seed_path])
    assert code == 0
    assert payload["count"] == 9
    assert "orbits" not in payload


def test_factor_two_crossings(capsys):
    code, payload = run_json(
        capsys,
        ["factor", "--gr", "2", "6", "--ratio", "p[12]*p[35]/(p[13]*p[25])"],
    )
    assert code == 0
    crossings = sorted(tuple(f["crossing"]) for f in payload["factors"])
    assert crossings == [(2, 5), (2, 6)]


def test_factor_unbounded_exits_one(capsys):
    code, payload = run_json(
        capsys,
        ["factor", "--gr", "2", "6", "--ratio", "p[13]*p[24]/(p[14]*p[23])"],
    )
    assert code == 1
    assert payload["factors"] is None
    assert payload["reason"]


def test_enumerate_catalog_table(capsys):
    code, out, _ = run(capsys, ["enumerate", "--type", "A3", "--format", "text"])
    assert code == 0
    assert "belt period 12" in out
    assert "9 cluster variables" in out
    assert "(x1*x3 + 1)/x2" in out
    assert "[x[1,1,1]]" in out


def test_enumerate_non_bipartite_seed_file(capsys, tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps({
        "nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}],
    }))
    code, out, _ = run(capsys, ["enumerate", "--seed-file", str(path),
                                "--format", "text"])
    assert code == 0
    assert "type A3" in out
    # the source-finding mutation renames the touched node
    assert "a'" in out


def test_verify_u_equation_suite(capsys):
    code, payload = run_json(capsys, ["verify", "--suite", "u-equations"])
    assert code == 0
    assert payload["ok"] is True
    assert sorted(payload["types"]) == ["A1", "A2", "A3", "C2", "D4"]
    assert all(row["ok"] for row in payload["types"].values())


def test_verify_gr48_suite(capsys):
    code, payload = run_json(
        capsys,
        ["verify", "--suite", "gr48", "--samples", "15",
         "--sample-seed", "311"],
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["images"] == 316
    assert payload["strictly_below_one"] is True


def test_verify_gr48_suite_is_labelled_sampled(capsys):
    argv = ["verify", "--suite", "gr48", "--samples", "3", "--sample-seed", "5"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["evidence"] == "sampled"
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert "sampled at 3 totally positive points" in out


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-5"), ("--jobs", "0"), ("--jobs", "-3"),
])
def test_verify_gr48_refuses_nonpositive_counts(capsys, flag, value):
    # zero points used to pass with "points": 0 and nothing checked
    argv = ["verify", "--suite", "gr48", "--samples", "1", flag, value]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"{flag} must be at least 1" in err


def test_verify_appendix_suite(capsys):
    code, payload = run_json(capsys, ["verify", "--suite", "appendix"])
    assert code == 0
    sections = payload["sections"]
    assert sections["pluecker"]["rows"] == 10
    assert sections["pluecker"]["orbits_hit"] == 10
    assert sections["degree2"]["rows"] == 14
    assert sections["degree2"]["orbits_hit"] == 14


@pytest.mark.parametrize("argv,needle", [
    (["uvars"], "exactly one of"),
    (["uvars", "--type", "A2", "--gr", "2", "5"], "exactly one of"),
    (["uvars", "--gr", "2", "5", "--frozen", "1"], "--frozen"),
    (["uvars", "--type", "Z9"], "Dynkin"),
    (["check", "--type", "C2", "--ratio", "x9/x1"], "unknown name"),
    (["cone", "--type", "A2", "--subset", "deg2"], "--gr"),
    (["factor", "--type", "A2", "--ratio", "x1/x2"], "--gr"),
    (["verify"], "exactly one of"),
    (["verify", "--suite", "gr48", "--certificate", "x"], "exactly one of"),
    (["uvars", "--seed-file", "/nonexistent/seed.json"], "cannot read"),
    (["factor", "--gr", "3", "6", "--ratio", "q[124|356]/p[135]"], "not a minor"),
    (["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*x2",
      "--certificate-out", "/nonexistent/dir/c.json"], "cannot write"),
])
def test_usage_errors_exit_two(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("content,needle", [
    ('"seed.json"', "not an object"),
    ('{"nodes": [{"name": "a", "weight": Infinity}, {"name": "b"}],'
     ' "arrows": [{"from": "a", "to": "b"}]}', "error: "),
    ('{"nodes": [{"name": "a"}, {"name": "b"}, {"name": "f", "frozen": true}],'
     ' "arrows": [{"from": "a", "to": "b"},'
     ' {"from": "f", "to": "a", "mult": 1000000000000000000000000000000}]}',
     "arrow f -> a: multiplicity"),
    ('{"nodes": [{"name": "a"}, {"name": "b"}, {"name": "f", "frozen": true}],'
     ' "arrows": [{"from": "a", "to": "b"}, {"from": "f", "to": "a", "mult": 8192}]}',
     "arrow f -> a: multiplicity 8192"),
    ('{"nodes": [{"name": "a", "weight": 2}, {"name": "b"},'
     ' {"name": "f", "frozen": true}],'
     ' "arrows": [{"from": "a", "to": "b"}, {"from": "a", "to": "f", "mult": 4096}]}',
     "arrow a -> f: opposite entry -8192"),
], ids=["string", "infinite-weight", "huge-frozen-multiplicity",
        "multiplicity-at-the-exponent-limit", "opposite-entry-at-the-exponent-limit"])
def test_malformed_seed_file_is_a_usage_error(capsys, tmp_path, content, needle):
    path = tmp_path / "seed.json"
    path.write_text(content)
    code, out, err = run(capsys, ["uvars", "--seed-file", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert needle in err



def test_ratio_error_is_annotated(capsys):
    code, _, err = run(
        capsys, ["check", "--type", "C2", "--ratio", "x1*/x2"]
    )
    assert code == 2
    assert "^" in err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
