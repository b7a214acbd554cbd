"""End-to-end command line tests, driving main() in process.

Under pytest stdout is not a terminal, so the default output format is
JSON; text assertions pass --format text explicitly.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import clustercones
from clustercones.cli import main
from clustercones.commands.verify import _certificate_from_dict
from clustercones.context import _context_from_key, _seed_context
from clustercones.expressions import parse_ratio, render_ratio


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


def test_check_omits_a_gap_expansion_out_of_exponent_range(capsys, tmp_path):
    # lam = 9001/2 is bounded and not integral, and the gap expansion's
    # exponents leave the 16-bit fields of a Laurent polynomial: the report
    # is omitted, as on a belt that offers no expansions, and check exits 0
    argv = ["check", "--type", "C2", "--ratio", "(x1*x3*x5/(x2*x4*x6))^9001",
            "--format", "json"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and "subtraction_free" not in payload
    assert payload["certificate"]["lambda"] == {"x2": "9001/2", "x4": "9001/2", "x6": "9001/2"}
    src = Path(clustercones.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "clustercones.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout) == payload


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


NWZ_CHECK = ["check", "--type", "A3", "--frozen", "1", "--ratio", "x1/x2"]
GR38_BOUNDED_CHECK = ["check", "--gr", "3", "8", "--ratio", "p[145]*p[235]/(p[135]*p[245])"]
GR38_UNBOUNDED_CHECK = ["check", "--gr", "3", "8", "--ratio", "p[135]*p[245]/(p[145]*p[235])"]
GR25_CHECK = ["check", "--gr", "2", "5", "--ratio", "p[13]/p[14]"]
BOUNDED_CHECK = ["check", "--type", "A1", "--frozen", "1", "--ratio", "1/(x1*x2)"]


@pytest.mark.parametrize("check,tamper,field", [
    (NWZ_CHECK, lambda r: r["certificate"].update(
        alpha={"1": 0, "0": 0, "-1": 0, "00": 0}), '"alpha" must be a list'),
    (NWZ_CHECK, lambda r: r["certificate"].update(alpha="1234"),
     '"alpha" must be a list'),
    (NWZ_CHECK, lambda r: r["certificate"]["alpha"].__setitem__(0, True),
     '"alpha" entry must be'),
    (NWZ_CHECK, lambda r: r["certificate"]["alpha"].__setitem__(0, 1.0),
     '"alpha" entry must be'),
    (NWZ_CHECK, lambda r: r["certificate"].update(weight=True), '"weight" must be'),
    (NWZ_CHECK, lambda r: r["certificate"].update(weight=[1]), '"weight" must be'),
    (NWZ_CHECK, lambda r: r["context"].update(frozen=1.9), '"frozen" must be'),
    (NWZ_CHECK, lambda r: r["context"].update(frozen=True), '"frozen" must be'),
    (NWZ_CHECK, lambda r: r["context"].update(frozen="1"), '"frozen" must be'),
    (GR25_CHECK, lambda r: r["context"].update(k=2.5), '"k" must be'),
    (GR25_CHECK, lambda r: r["context"].update(n="5"), '"n" must be'),
    (BOUNDED_CHECK, lambda r: r["certificate"]["lambda"].update(x1=True),
     '"lambda" entry must be'),
    (BOUNDED_CHECK, lambda r: r["certificate"]["lambda"].update(x1=1.0),
     '"lambda" entry must be'),
    (BOUNDED_CHECK, lambda r: r["certificate"]["lambda"].update(x2=None),
     '"lambda" entry must be'),
    (BOUNDED_CHECK, lambda r: r["certificate"]["lambda"].update(x2=False),
     '"lambda" entry must be'),
], ids=["alpha-object", "alpha-string", "alpha-entry-bool", "alpha-entry-float",
        "weight-bool", "weight-list", "frozen-float", "frozen-bool",
        "frozen-string", "k-float", "n-string", "lambda-entry-bool",
        "lambda-entry-float", "lambda-entry-null", "lambda-entry-false"])
def test_malformed_certificate_field_is_named(capsys, tmp_path, check, tamper, field):
    # int() and Fraction() used to read these: an object alpha as its
    # keys (and replayed true), a string alpha character by character,
    # and true, 1.9 or "1" as 1; a well-formed file still replays
    path = tmp_path / "cert.json"
    run(capsys, [*check, "--certificate-out", str(path)])
    code, _ = run_json(capsys, ["verify", "--certificate", str(path)])
    assert code == 0
    record = json.loads(path.read_text())
    tamper(record)
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed certificate (TypeError: ")
    assert field in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("verdict", [["bounded"], "Bounded", 5, None, "proved"],
                         ids=["list", "capitalised", "number", "null", "unknown"])
def test_certificate_verdict_must_be_one_of_the_three(capsys, tmp_path, verdict):
    # the verdict used to be passed on as read, so the replay printed it
    # back and exited 1 instead of naming the field
    path = tmp_path / "cert.json"
    run(capsys, [*BOUNDED_CHECK, "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    record["certificate"]["verdict"] = verdict
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed certificate (ValueError: ")
    assert '"verdict"' in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("check", [BOUNDED_CHECK, GR38_BOUNDED_CHECK, GR38_UNBOUNDED_CHECK],
                         ids=["a1-bounded", "gr38-bounded", "gr38-unbounded"])
def test_explicit_zero_lambda_entries_replay_as_before(capsys, tmp_path, check):
    # a "0" (or 0, or "0/7") for every u-variable the certificate leaves
    # out is a zero power: the file still replays, and a tampered power
    # among the zeros still fails
    path = tmp_path / "cert.json"
    run(capsys, [*check, "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    lam = record["certificate"]["lambda"]
    ctx = _context_from_key(record["context"])
    names = [ctx.belt.name(u.gamma) for u in ctx.U.uvars]
    want = _certificate_from_dict(record["certificate"], ctx).powers
    zeros = ("0", 0, "0/7")
    for i, name in enumerate(n for n in names if n not in lam):
        lam[name] = zeros[i % 3]
    assert len(lam) == len(names)
    # the reader keeps the nonzero powers in column order, in any file order
    reversed_lam = dict(record["certificate"], **{"lambda": dict(reversed(lam.items()))})
    for read in (record["certificate"], reversed_lam):
        assert _certificate_from_dict(read, ctx).powers == want
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert (code, payload["replayed"]) == (0, True)
    lam[next(n for n in names if lam[n] in zeros)] = "1/2"
    path.write_text(json.dumps(record))
    code, payload = run_json(capsys, ["verify", "--certificate", str(path)])
    assert (code, payload["replayed"]) == (1, False)


@pytest.mark.parametrize("check,tamper,needle", [
    (["check", "--type", "A1", "--frozen", "1", "--ratio", "x1*f1"],
     lambda c: c.update(ratio={"x1": 7, "f1": 1, "x[-1]": 1}),
     "certificate ratio names variable 'x1' twice"),
    (BOUNDED_CHECK, lambda c: c["lambda"].update({"x[-1]": "5"}),
     "certificate lambda names variable 'x1' twice"),
    (BOUNDED_CHECK, lambda c: c["lambda"].update(f1="5"),
     "certificate lambda names 'f1', which has no u-variable"),
], ids=["ratio-root-label", "lambda-root-label", "lambda-frozen"])
def test_certificate_entry_that_would_be_dropped_is_refused(capsys, tmp_path, check,
                                                             tamper, needle):
    # x[-1] is x1's root label: the ratio used to keep only the later of
    # the two entries, so this x1^8 * f1 replayed as the weight-1 x1 * f1,
    # and a lambda entry for a root label or a frozen variable was ignored
    path = tmp_path / "cert.json"
    run(capsys, [*check, "--certificate-out", str(path)])
    record = json.loads(path.read_text())
    tamper(record["certificate"])
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {needle}\n"


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
# obstruction (alpha and weight); and the Gr(3,8) weight obstruction,
# computed before torus weights were read as valuations along kernel vectors
CHECK_GOLDEN = {
    "gr38-not-weight-zero": (
        ["--gr", "3", "8", "--ratio", "p[123]/p[124]"], 1,
        "d75361996e636ef311ae5f801ff46793c9fccdd6042184d6141c0e1b92d9683a"),
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


# a primitive Gr(3,8) ratio to the 10**12: the chain names each factor
# once with its multiplicity, so the payload stays small
GR38_LARGE_POWER = 10**12
GR38_LARGE_POWER_CHECK = [
    "check", "--gr", "3", "8", "--ratio",
    "p[145]^{0}*p[235]^{0}/(p[135]^{0}*p[245]^{0})".format(GR38_LARGE_POWER)]


def test_check_of_a_large_power_is_small_and_golden(capsys):
    code, out, err = run(capsys, [*GR38_LARGE_POWER_CHECK, "--format", "json"])
    assert code == 0 and err == ""
    assert len(out.encode()) < 4096
    report = json.loads(out)["subtraction_free"]
    assert report["verified"] is True and report["subtraction_free"] is True
    assert all(name.endswith(f"^{GR38_LARGE_POWER}") for name in report["chain"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5817b9fe520aaf52bd535ea20872ec31968b92ba96c5e354fb3ce0eb3947449c")
    code, out, _ = run(capsys, [*GR38_LARGE_POWER_CHECK, "--format", "text"])
    assert code == 0
    assert (f"telescoping chain of {11 * GR38_LARGE_POWER} u-factors"
            in out.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
def test_check_json_is_golden(capsys, case):
    args, want_code, digest = CHECK_GOLDEN[case]
    code, out, err = run(capsys, ["check", *args, "--format", "json"])
    assert code == want_code and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_weight_obstruction_certificate_file_is_golden(capsys, tmp_path):
    # sha256 of each file, carrying alpha and weight: the A3+1 one computed
    # before torus weights were read as valuations along kernel vectors,
    # the Gr(3,8) one before they were read off the leading lanes of U's
    # packed walk. Each replays, and fails once alpha leaves the kernel.
    cases = [
        (["--type", "A3", "--frozen", "1", "--ratio", "x1/x2"],
         "ceec59a0cbb3752ab26168f523db3ff6cbe0288e912096cff3a38b7a906b4f39"),
        (["--gr", "3", "8", "--ratio", "p[123]/p[124]"],
         "b4065998711d5bdc42c383dd5bdca5463ddf9e4525f04c57eeccebb58a23d7ed"),
    ]
    for args, digest in cases:
        path = tmp_path / "nwz.json"
        code, _, _ = run(capsys, ["check", *args, "--certificate-out", str(path)])
        assert code == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert run(capsys, ["verify", "--certificate", str(path)])[0] == 0
        data = json.loads(path.read_text())
        alpha = data["certificate"]["alpha"]
        alpha[0] = str(Fraction(alpha[0]) + 1)
        path.write_text(json.dumps(data))
        assert run(capsys, ["verify", "--certificate", str(path)])[0] == 1


# sha256 of the JSON, computed before the dual basis came from one packed
# walk and the sample values were walked over integers: the names the
# identification gives every Gr(3,8) variable, and the u-variables read
# with them
GR38_NAMES_GOLDEN = {
    "enumerate": "177f268f257bef08eeb409aa3d9c86bad664fb46090ec4a18804d0e07d6313d8",
    "uvars": "7e63d7b74c0c87307fbdfabf69ac50d91696360ec40a063cc7209514c932a040",
}


@pytest.mark.parametrize("command", sorted(GR38_NAMES_GOLDEN))
def test_gr38_names_json_is_golden(capsys, command):
    code, out, err = run(capsys, [command, "--gr", "3", "8", "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GR38_NAMES_GOLDEN[command]


def test_importing_the_cli_does_not_load_the_process_pool():
    # no command starts worker processes, so none of them may pay for
    # loading the pool at start-up
    src = Path(clustercones.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, clustercones.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv,needle", [
    (["cone", "--type", "A3", "--subset", "pluecker"], "--subset pluecker needs a --gr context"),
    (["check", "--type", "A3", "--ratio", "x1*/x2"], "expected a variable name"),
    (["enumerate", "--seed-file", "triple.json"], "2-finite"),
], ids=["usage-error-in-a-command-module", "malformed-ratio", "seed-not-of-finite-type"])
def test_errors_exit_two_under_python_m(tmp_path, argv, needle):
    # `python -m clustercones.cli` runs cli.py as __main__: a command
    # module that imported from clustercones.cli would load it a second
    # time, and raise a UsageError class that main does not catch
    (tmp_path / "triple.json").write_text(json.dumps({
        "nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "arrows": [{"from": "a", "to": "b", "mult": 3},
                   {"from": "b", "to": "c", "mult": 3},
                   {"from": "c", "to": "a", "mult": 3}],
    }))
    src = Path(clustercones.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "clustercones.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and needle in done.stderr.splitlines()[0]
    assert "Traceback" not in done.stderr


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


# sha256 of the JSON of factor on a primitive Gr(3,8) ratio to the 10**3:
# the payload of 1000 equal entries, collapsed to one with its multiplicity
FACTOR_POWER_GOLDEN = "5e50de3de0a3e313e2ea1e3147e67f0b567da57580a22f1a0cad350e7e7e73f1"


def test_factor_of_a_power_is_golden(capsys):
    ratio = "p[145]^1000*p[235]^1000/(p[135]^1000*p[245]^1000)"
    code, out, err = run(capsys, ["factor", "--gr", "3", "8", "--ratio", ratio,
                                  "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FACTOR_POWER_GOLDEN
    factors = json.loads(out)["factors"]
    assert [f["multiplicity"] for f in factors] == [1000]


def test_factor_of_a_large_power_is_one_counted_entry(capsys):
    ratio = "p[145]^{0}*p[235]^{0}/(p[135]^{0}*p[245]^{0})".format(GR38_LARGE_POWER)
    args = ["factor", "--gr", "3", "8", "--ratio", ratio]
    code, out, err = run(capsys, [*args, "--format", "json"])
    assert code == 0 and err == ""
    assert len(out.encode()) < 4096
    (factor,) = json.loads(out)["factors"]
    assert (factor["crossing"], factor["extra"]) == ([1, 3], [5])
    assert factor["multiplicity"] == GR38_LARGE_POWER
    code, out, _ = run(capsys, [*args, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == f"primitive factors: {GR38_LARGE_POWER}"
    assert lines[2].endswith(f"multiplicity {GR38_LARGE_POWER}")


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


# sha256 of enumerate --format json for contexts whose exchange relations
# carry exponents 2 and 3, taken when exact division still ran a heap
ENUMERATE_GOLDEN = {
    "B3+3": "b5e122a8db4815deaadf04b7bc54872e4ea67403fbc6faa0c2b37d6309fbd481",
    "C3+3": "af2996604c155db90bd4825420ef6b53692cde631092280534c22716445af03e",
    "G2+2": "bc2ae1b1da5943388433d888dafc1ee28f4b8820d58df76c5fc50d029ab7dfa8",
}


@pytest.mark.parametrize("context", sorted(ENUMERATE_GOLDEN))
def test_enumerate_json_of_non_simply_laced_contexts_is_golden(capsys, context):
    name, frozen = context.split("+")
    code, out, err = run(capsys, ["enumerate", "--type", name, "--frozen", frozen,
                                  "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_GOLDEN[context]


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


# the linear seed a -> b -> c with a frozen node on each mutable one, and
# the sha256 of its enumerate JSON and of a bounded check's certificate
# file, computed when the command line still re-based seed files itself
LINEAR_SEED = {
    "nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"},
              {"name": "f1", "frozen": True}, {"name": "f2", "frozen": True},
              {"name": "f3", "frozen": True}],
    "arrows": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"},
               {"from": "f1", "to": "a"}, {"from": "f2", "to": "b"},
               {"from": "f3", "to": "c"}],
}
LINEAR_ENUMERATE_GOLDEN = "e49ac2a0473009635ab888c21f22f89b8286385fdf08bccbcf5b65393c729369"
LINEAR_CERTIFICATE_GOLDEN = "5056490a4b98bbbd2989aedfed57799211cd3f451dfbe6ea00de94885b669248"


def test_non_bipartite_seed_file_outputs_are_golden(capsys, tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR_SEED))
    code, out, err = run(capsys, ["enumerate", "--seed-file", str(path),
                                  "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == LINEAR_ENUMERATE_GOLDEN
    cert = tmp_path / "linear-cert.json"
    code, payload = run_json(capsys, [
        "check", "--seed-file", str(path), "--ratio", "x[-1,0,0]*c/(b*x[0,1,0])",
        "--certificate-out", str(cert), "--format", "json"])
    assert code == 0 and payload["certificate"]["verdict"] == "bounded"
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == LINEAR_CERTIFICATE_GOLDEN
    # the certificate names the base seed, primed names included, and replays
    assert json.loads(cert.read_text())["context"]["seed"]["nodes"][0]["name"] == "a'"
    code, payload = run_json(capsys, ["verify", "--certificate", str(cert),
                                      "--format", "json"])
    assert code == 0 and payload["replayed"] is True


def test_re_basing_primes_a_name_until_no_other_node_has_it(capsys, tmp_path):
    # the linear seed a -> a' -> c mutates at a, whose single prime would
    # be the name of the next node: it gets two, and the certificate's
    # base seed, which names every node once, replays
    path = tmp_path / "collide.json"
    path.write_text(json.dumps({
        "nodes": [{"name": "a"}, {"name": "a'"}, {"name": "c"},
                  {"name": "f", "frozen": True}, {"name": "g", "frozen": True},
                  {"name": "h", "frozen": True}],
        "arrows": [{"from": "a", "to": "a'"}, {"from": "a'", "to": "c"},
                   {"from": "f", "to": "a"}, {"from": "g", "to": "a'"},
                   {"from": "h", "to": "c"}],
    }))
    cert = tmp_path / "collide-cert.json"
    code, payload = run_json(capsys, ["check", "--seed-file", str(path), "--ratio", "a'/c",
                                      "--certificate-out", str(cert), "--format", "json"])
    assert code == 1 and payload["certificate"]["verdict"] == "not-weight-zero"
    assert payload["legend"]["mutable"][:3] == ["a''", "a'", "c"]
    assert payload["certificate"]["ratio"] == {"a'": 1, "c": -1}
    names = [nd["name"] for nd in json.loads(cert.read_text())["context"]["seed"]["nodes"]]
    assert names == ["a''", "a'", "c", "f", "g", "h"]
    code, payload = run_json(capsys, ["verify", "--certificate", str(cert), "--format", "json"])
    assert code == 0 and payload["replayed"] is True


def test_primed_names_of_a_re_based_seed_parse_as_rendered(capsys, tmp_path):
    belt = _seed_context(LINEAR_SEED, "linear.json").belt
    assert belt.name(0) == "a'"
    rng = random.Random(3)
    ids = range(len(belt.entries))
    for _ in range(100):
        vec = {id: e for id in rng.sample(ids, rng.randint(1, 5))
               if (e := rng.randint(-3, 3))}
        assert parse_ratio(render_ratio(vec, belt.name), belt.id_by_name) == vec
    # the primed spelling of x[-1,0,0] gives the same vector, verdict and
    # certificate file as the root label does
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR_SEED))
    payloads = []
    for spelling in ("x[-1,0,0]", "a'"):
        cert = tmp_path / "linear-cert.json"
        code, payload = run_json(capsys, [
            "check", "--seed-file", str(path), "--ratio", f"{spelling}*c/(b*x[0,1,0])",
            "--certificate-out", str(cert), "--format", "json"])
        assert code == 0
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == LINEAR_CERTIFICATE_GOLDEN
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[1]["expression"] == "a'*c/(b*x[0,1,0])"
    assert payloads[1]["certificate"]["verdict"] == "bounded"


def test_enumerate_refuses_a_seed_file_that_is_not_2_finite(capsys, tmp_path):
    # the triple-arrow 3-cycle: b_ab * b_ba = -9 in the seed itself
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "arrows": [{"from": "a", "to": "b", "mult": 3},
                   {"from": "b", "to": "c", "mult": 3},
                   {"from": "c", "to": "a", "mult": 3}],
    }))
    code, out, err = run(capsys, ["enumerate", "--seed-file", str(path)])
    assert code == 2 and out == ""
    assert "2-finite" in err


# disconnected seeds: the mutable part is a product of Dynkin types
PRODUCT_SEEDS = {
    "A1xA1": ({"nodes": [{"name": "a"}, {"name": "b"}], "arrows": []},
              "2 components, {a} (A1), {b} (A1)"),
    "A2xA1": ({"nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
               "arrows": [{"from": "a", "to": "b"}]},
              "2 components, {a, b} (A2), {c} (A1)"),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_SEEDS))
def test_enumerate_names_the_components_of_a_product_seed(capsys, tmp_path, case):
    data, components = PRODUCT_SEEDS[case]
    path = tmp_path / "product.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["enumerate", "--seed-file", str(path)])
    assert code == 2 and out == ""
    assert components in err
    assert "products of Dynkin types are not supported" in err
    assert "Dynkin orientation" not in err


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


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-5")])
def test_verify_gr48_refuses_nonpositive_counts(capsys, flag, value):
    # zero points used to pass with "points": 0 and nothing checked
    argv = ["verify", "--suite", "gr48", "--samples", "1", flag, value]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"{flag} must be at least 1" in err


# sha256 of the JSON, computed before the gr48 check became one loop in
# one process
GR48_SAMPLED_GOLDEN = "4cc4ee934b9d36e1c05c24b323a8c6e76b49d0c186654cb8c428df7aafa4a3be"


def test_verify_gr48_json_is_golden(capsys):
    argv = ["verify", "--suite", "gr48", "--samples", "15", "--sample-seed", "5",
            "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GR48_SAMPLED_GOLDEN


# sha256 of `verify --suite gr48 --samples 1 --sample-seed 7 --format json`,
# computed before the monomials were compiled into one kernel
GR48_ONE_POINT_GOLDEN = "da1c47651e828e26ec19de6b71fcdd38fd9b7aac610d1e6a2e6e5d0bf5b184ad"


def test_verify_gr48_at_one_point(capsys):
    argv = ["verify", "--suite", "gr48", "--samples", "1", "--sample-seed", "7"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GR48_ONE_POINT_GOLDEN
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert code == 0
    assert "sampled at 1 totally positive point\n" in out
    assert "points" not in out


def test_verify_has_no_jobs_option(capsys):
    # the gr48 check runs in one process; --jobs is an unknown option
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "gr48", "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_appendix_suite(capsys):
    code, payload = run_json(capsys, ["verify", "--suite", "appendix"])
    assert code == 0
    sections = payload["sections"]
    assert sections["pluecker"]["rows"] == 10
    assert sections["pluecker"]["orbits_hit"] == 10
    assert sections["degree2"]["rows"] == 14
    assert sections["degree2"]["orbits_hit"] == 14


# sha256 of the JSON, computed before the ray-table search lost its
# re-verification pass and its assignment dedupe
APPENDIX_GOLDEN = "91e48cc11e4e6c7d8fe52897f264608643761bbc6f1a349ae3cf67d832c07c25"


def test_verify_appendix_json_is_golden(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "appendix", "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == APPENDIX_GOLDEN


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
    (["verify", "--suite", "appendix", "--samples", "5", "--sample-seed", "3"],
     "--samples only applies to --suite gr48"),
    (["verify", "--suite", "u-equations", "--sample-seed", "3"],
     "--sample-seed only applies to --suite gr48"),
    (["verify", "--certificate", "c.json", "--samples", "5"],
     "--samples only applies to --suite gr48"),
])
def test_usage_errors_exit_two(capsys, argv, needle):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_a_file_that_is_not_json_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "truncated.json"
    path.write_text('{"nodes": [')
    flag = "--seed-file" if command == "enumerate" else "--certificate"
    code, out, err = run(capsys, [command, flag, str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not JSON: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["check", "--ratio", "x2/(x1*x7)"], ["cone"], ["uvars"]],
                         ids=["check", "cone", "uvars"])
def test_commands_without_expansions_divide_nothing(capsys, monkeypatch, argv):
    # an integral check, cone and uvars read the belt's min-plus data
    # alone, so on a belt that offers expansions they prove none; enumerate
    # prints them, and divides once per exchange before the relabeling step
    # h+2 = 14: 3 sources a step, 36 new variables and the initial 6 again
    from clustercones.laurent import LaurentPolynomial

    divisors = []
    divide = LaurentPolynomial.divide_exact
    monkeypatch.setattr(LaurentPolynomial, "divide_exact",
                        lambda a, b: divisors.append(b) or divide(a, b))
    context = ["--type", "E6", "--frozen", "6"]
    code, payload = run_json(capsys, [argv[0], *context, *argv[1:]])
    assert code == 0 and divisors == []
    if argv[0] == "check":
        assert payload["subtraction_free"]["kind"] == "chain"
    code, payload = run_json(capsys, ["enumerate", *context])
    assert code == 0 and "expansion" in payload["variables"][0]
    assert len(divisors) == 14 * 3 == 36 + 6


def test_grassmannian_enumerate_lists_degrees_not_expansions(capsys):
    # Gr(3,7) is E6, whose belt offers expansions
    code, payload = run_json(capsys, ["enumerate", "--gr", "3", "7"])
    assert code == 0 and len(payload["variables"]) == 42 + 7
    assert all("degree" in v and "expansion" not in v for v in payload["variables"])


def a2(a=(), b=(), arrow=()):
    """An A2 seed description, with fields of node a, node b or the arrow
    replaced."""
    return {"nodes": [{"name": "a", **dict(a)}, {"name": "b", **dict(b)}],
            "arrows": [{"from": "a", "to": "b", **dict(arrow)}]}


# one bad field each; names used to end in a traceback, "no" read as
# frozen, 1.9, 1.5 and true were truncated to 1, and a misspelt key was
# read as its default (an A2 belt, exit 0)
BAD_SEED_FIELDS = {
    "name-number": (a2(a={"name": 5}), "node name 5 "),
    "name-null": (a2(a={"name": None}), "node name null "),
    "name-empty": (a2(a={"name": ""}), 'node name ""'),
    "frozen-string": (a2(a={"frozen": "no"}),
                      'node a: frozen must be true or false, got "no"'),
    "weight-float": (a2(a={"weight": 1.5}),
                     "node a: weight must be a positive integer, got 1.5"),
    "weight-zero": (a2(b={"weight": 0}),
                    "node b: weight must be a positive integer, got 0"),
    "mult-float": (a2(arrow={"mult": 1.9}),
                   "arrow a -> b: multiplicity must be a positive integer, got 1.9"),
    "mult-bool": (a2(arrow={"mult": True}),
                  "arrow a -> b: multiplicity must be a positive integer, got true"),
    "key-frozn": (a2(a={"frozn": True}), 'node a: unknown key "frozn"'),
    "key-mul": (a2(arrow={"mul": 2}), 'arrow a -> b: unknown key "mul"'),
}


# one bad shape each; these exited 2 with Python's own words: an arrow
# without "to" named an unknown node 'to', a string where an object or a
# list belongs gave "string indices must be integers", a list as an end
# "unhashable type", and no nodes or "arows" for "arrows" "not a Dynkin
# orientation"
BAD_SEED_SHAPES = {
    "arrow-without-to": ({"nodes": [{"name": "a"}, {"name": "b"}],
                          "arrows": [{"from": "a"}]}, 'arrow 0 has no "to"'),
    "arrow-without-from": ({"nodes": [{"name": "a"}, {"name": "b"}],
                            "arrows": [{"from": "a", "to": "b"}, {"to": "a"}]},
                           'arrow 1 has no "from"'),
    "arrow-string": ({**a2(), "arrows": ["a -> b"]}, "arrow 0 is not an object"),
    "arrows-string": ({**a2(), "arrows": "a -> b"},
                      '"arrows" must be a list of arrow objects'),
    "arrows-object": ({**a2(), "arrows": {"from": "a", "to": "b"}},
                      '"arrows" must be a list of arrow objects'),
    "nodes-string": ({**a2(), "nodes": "ab"},
                     '"nodes" must be a list of node objects'),
    "nodes-object": ({**a2(), "nodes": {"name": "a"}},
                     '"nodes" must be a list of node objects'),
    "node-string": ({**a2(), "nodes": [{"name": "a"}, "b"]},
                    "node 1 is not an object"),
    "node-without-name": ({**a2(), "nodes": [{"name": "a"}, {}]},
                          "node 1 has no name"),
    "end-list": (a2(arrow={"from": ["a"]}),
                 'arrow 0 references unknown node ["a"]'),
    "end-unknown": (a2(arrow={"to": "c"}), 'arrow 0 references unknown node "c"'),
    "no-nodes": ({"nodes": [], "arrows": []}, "seed has no mutable node"),
    "key-arows": ({"nodes": a2()["nodes"], "arows": a2()["arrows"]},
                  'top level: unknown key "arows"'),
    "only-frozen": ({"nodes": [{"name": "f", "frozen": True}]},
                    "seed has no mutable node"),
}


@pytest.mark.parametrize("case", sorted(BAD_SEED_SHAPES))
def test_malformed_seed_shape_is_a_usage_error(capsys, tmp_path, case):
    seed, needle = BAD_SEED_SHAPES[case]
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    code, out, err = run(capsys, ["enumerate", "--seed-file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
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
    *[(json.dumps(seed), needle) for seed, needle in BAD_SEED_FIELDS.values()],
], ids=["string", "infinite-weight", "huge-frozen-multiplicity",
        "multiplicity-at-the-exponent-limit", "opposite-entry-at-the-exponent-limit",
        *BAD_SEED_FIELDS])
def test_malformed_seed_file_is_a_usage_error(capsys, tmp_path, content, needle):
    path = tmp_path / "seed.json"
    path.write_text(content)
    code, out, err = run(capsys, ["uvars", "--seed-file", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("case", sorted(BAD_SEED_FIELDS) + sorted(BAD_SEED_SHAPES))
def test_certificate_seed_field_types_are_checked(capsys, tmp_path, case):
    # a certificate's seed context goes through the same checks
    seed, needle = {**BAD_SEED_FIELDS, **BAD_SEED_SHAPES}[case]
    seed_path, cert_path = tmp_path / "seed.json", tmp_path / "cert.json"
    seed_path.write_text(json.dumps(a2()))
    code, _, _ = run(capsys, ["check", "--seed-file", str(seed_path), "--ratio",
                              "a*b", "--certificate-out", str(cert_path)])
    assert code == 1
    record = json.loads(cert_path.read_text())
    record["context"]["seed"] = seed
    cert_path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["verify", "--certificate", str(cert_path)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
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
