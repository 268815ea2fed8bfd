import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermitepw
from hermitepw.cli import main
from hermitepw.hermite import pseudo_wronskian
from hermitepw.maya import MayaDiagram, Partition
from hermitepw.polys import IntPoly, poly_gcd

from conftest import poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_pw_text(capsys):
    code, out = run(capsys, "pw", "--frobenius", "5,2|")
    assert code == 0
    assert out == "H[(5,2 | )] = -384x^6 - 960x^4 - 480x^2 - 240\n"


def test_pw_json_round_trip(capsys):
    code, out = run(capsys, "--format", "json", "pw", "--partition", "2,2,1,1")
    assert code == 0
    blob = json.loads(out)
    poly = poly_from_json(blob["poly"])
    assert poly.degree == blob["degree"] == 6
    assert MayaDiagram.parse(blob["frobenius"]).t == (5, 4, 2, 1)


def test_equiv_json(capsys):
    code, out = run(capsys, "--format", "json", "equiv",
                    "--partition", "4,4,3,1,1", "--k", "6")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"M": "( | 8,7,5,2,1)", "constant": "-483840", "k": 6,
                    "lhs_degree": 13, "match": True}


def test_equiv_accepts_frobenius_and_shift(capsys):
    code, out = run(capsys, "--format", "json", "equiv",
                    "--frobenius", "|8,7,5,2,1", "--k", "3")
    assert code == 0
    assert json.loads(out)["constant"] == "-1935360"


def test_maya_subcommand(capsys):
    code, out = run(capsys, "--format", "json", "maya", "--frobenius", "5,2,1|2,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["partition"] == [4, 4, 3, 1, 1]
    assert blob["girth"] == 5
    assert blob["standard_frobenius"] == "( | 8,7,5,2,1)"
    assert blob["standard_shift"] == -6
    assert blob["conjugate"] == [5, 3, 3, 2]


def test_maya_computes_the_conjugate_once(capsys, monkeypatch):
    # the JSON and the text lines share one conjugate
    calls = []
    real = Partition.conjugate
    monkeypatch.setattr(Partition, "conjugate", lambda lam: calls.append(lam) or real(lam))
    assert main(["maya", "--partition", "3,2,1"]) == 0
    assert calls == [Partition((3, 2, 1))]
    assert "conjugate: (3,2,1)" in capsys.readouterr().out


def test_minorder_subcommand(capsys):
    code, out = run(capsys, "--format", "json", "minorder", "--partition", "4,4,1,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["r"] == 3 and blob["origins"] == [3]
    assert blob["minimal_frobenius"] == "(2 | 4,3)"
    assert blob["durfee"] == {"mu": [2], "nu": [3, 3], "p": 1, "q": 2}


def test_minorder_of_a_billion_fits_in_512_mb():
    # five short lines need no more than the Frobenius symbol; the cap on
    # the address space acts on the child only, so a regression to a dense
    # walk fails fast with a MemoryError instead of filling the machine
    import resource

    cap = 512 * 2 ** 20
    src = Path(hermitepw.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hermitepw.cli", "minorder", "--partition", "1000000000"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "partition: (1000000000)",
        "minimal girth: 1",
        "origins: 0",
        "durfee symbol at origin 0: [ | 1000000000]_{0x1}",
        "minimal frobenius: ( | 1000000000)",
    ]


def test_xhermite_subcommand(capsys):
    code, out = run(capsys, "--format", "json", "xhermite", "--partition", "2,2,1,1",
                    "--n", "9", "--min-order", "--verify-ode")
    assert code == 0
    blob = json.loads(out)
    assert blob["min_order"]["order"] == 3
    assert blob["min_order"]["origin"] == 6
    assert blob["min_order"]["consistent"] is True
    assert blob["eigen"] == {"n": 9, "eigenvalue": "-6", "N": "6",
                             "residual_zero": True}


@pytest.mark.parametrize("fmt, digest", [
    ("text", "652a9ed9b05cd6ae7083c8a38db929be70565d77a1a04907fe63ed52323cebe4"),
    ("json", "709088a6eb5e5c9fcc86ab1ee10953c4dac09f9a0eb2353e6ae06b76fbc33626"),
])
def test_xhermite_bytes_pinned(capsys, fmt, digest):
    code, out = run(capsys, "--format", fmt, "xhermite", "--partition", "2,2,1,1",
                    "--n", "5", "--min-order", "--verify-ode")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one member for each case (a)-(d) of the insertion theorem, text then JSON
@pytest.mark.parametrize("partition, n, text_digest, json_digest", [
    ("2,2,1,1", "2",
     "2c0646947f8f4e5cdd9ce3fb0ada85012e594d622dec7471e3973c0a6850e2a2",
     "9b79e600476a33331f973dc30c9ac2edee0e0ed5bf19fdb0a436d62b329af32e"),
    ("4,4,1,1", "9",
     "9177c892d397e8fbbc4ed41f643aeeef25de5302d076c9bd1f596869d66a211f",
     "d64b1361f1edc6aa96730ef10607039307e90203fb78b8aac42b722ef0788a7c"),
    ("4,4,1,1", "10",
     "ff069ecaa85d69760b06bd1f4444a2891a57d93930e88941a78e1755fb277db4",
     "bcf0bdcf7d763610d5f4297f8ebad5d895f16472d4ce7b7fa77f72a5c8c9f3f2"),
    ("4,4,1,1", "14",
     "423b4143ca14bec0ffc7a8079258e235ea50f790dbd26a1772f29c82de1605a7",
     "178fdff12957c1e50f78030f0af2267fcffd7b5aff1ef606bce4097ec35a5f22"),
], ids=["a", "b", "c", "d"])
def test_xhermite_min_order_bytes_pinned(capsys, partition, n, text_digest, json_digest):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        code, out = run(capsys, "--format", fmt, "xhermite", "--partition", partition,
                        "--n", n, "--min-order")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("n", ["3", "-1"])
def test_xhermite_inadmissible_degree_is_bad_input(capsys, n):
    # position n - 2 is filled for 3, and -1 is no degree: one error line
    assert main(["xhermite", "--partition", "2,2,1,1", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hermitepw: error: degree {n} is not admissible for (2,2,1,1)\n"


def test_xhermite_failed_eigen_check_exits_1(capsys, monkeypatch):
    # P_5 of (2,2,1,1) off by one is no eigenfunction: a failed
    # verification, reported on one stderr line, not a traceback
    import hermitepw.xhermite as xhermite
    from hermitepw.maya import Partition

    real = xhermite.exceptional_hermite
    target = (Partition((2, 2, 1, 1)), 5)
    monkeypatch.setattr(xhermite, "exceptional_hermite",
                        lambda lam, n: real(lam, n) + 1 if (lam, n) == target else real(lam, n))
    assert main(["xhermite", "--partition", "2,2,1,1", "--n", "5", "--verify-ode"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hermitepw: verification failed: T[P_5]")
    assert captured.err.count("\n") == 1
    # without --verify-ode the same input is only printed
    assert main(["xhermite", "--partition", "2,2,1,1", "--n", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_piv_solve(capsys):
    code, out = run(capsys, "--format", "json", "piv", "--class", "gh",
                    "--m", "2", "--ell", "4", "--branch", "1", "--verify")
    assert code == 0
    blob = json.loads(out)
    assert blob["a"] == "-11" and blob["b"] == "-8" and blob["verified"] is True
    num, den = poly_from_json(blob["y"]["num"]), poly_from_json(blob["y"]["den"])
    assert not num.is_zero()
    assert poly_gcd(num, den) == 1 and den.leading > 0


def test_piv_o_solve(capsys):
    code, out = run(capsys, "--format", "json", "piv", "--class", "o",
                    "--l1", "1", "--l2", "2", "--branch", "2", "--verify")
    assert code == 0
    blob = json.loads(out)
    assert blob["a"] == "-1" and blob["b"] == "-128/9" and blob["verified"] is True


def test_piv_catalog(capsys):
    code, out = run(capsys, "--format", "json", "piv", "catalog", "--max", "1")
    assert code == 0
    entries = json.loads(out)
    assert entries and all(e["verified"] for e in entries)


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


@pytest.mark.parametrize("fmt, digest", [
    ("text", "a9839367658a0c77acbf48cbaa437d5233c1dac826bce4944744d7a24cb3538b"),
    ("json", "9ff5f97574c1c10b27e83a8a880b5b95ea6cd659b8f31df19f0da6c38da72cc9"),
])
def test_selftest_bytes_pinned(capsys, fmt, digest):
    code, out = run(capsys, "--format", fmt, "selftest")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest_verdicts_are_computed(capsys, monkeypatch):
    # scale the pseudo-Wronskian of every standard diagram (t only) by 3:
    # each check with such a side must fail, and the rest must not
    import hermitepw.hermite as hermite

    real = hermite._direct_pseudo_wronskian
    monkeypatch.setattr(hermite, "_direct_pseudo_wronskian",
                        lambda d: 3 * real(d) if d.t and not d.s else real(d))
    code, out = run(capsys, "selftest")
    failed = [line.removeprefix("[FAIL] ") for line in out.splitlines()
              if line.startswith("[FAIL] ")]
    assert code == 1 and failed
    assert all(name.startswith(("mixed triple", "shift constant")) for name in failed)
    code, out = run(capsys, "--format", "json", "selftest")
    assert code == 1
    assert [r["check"] for r in json.loads(out) if r["pass"] is False] == failed


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "--format", "json", "piv", "catalog", "--max", "1")
    _, out2 = run(capsys, "--format", "json", "piv", "catalog", "--max", "1")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--partition", "2,1"])   # missing required --k
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["maya"], ["pw"], ["equiv", "--k", "2"]],
                         ids=["maya", "pw", "equiv"])
def test_diagram_needs_exactly_one_notation(capsys, command):
    # both notations at once, or neither, is a usage error
    for flags in (["--partition", "2,1", "--frobenius", "1|0"], []):
        with pytest.raises(SystemExit) as exc:
            main(command + flags)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# a sign is checked before the rules of a branch
NEGATIVE_PARAMETERS = (
    ("piv", "--class", "gh", "--m", "-1", "--ell", "2", "--branch", "2"),
    ("piv", "--class", "o", "--l1", "-1", "--l2", "0", "--branch", "1"),
)


@pytest.mark.parametrize("argv", [
    ("piv", "--class", "o", "--l1", "0", "--l2", "1", "--branch", "1"),
    ("xhermite", "--partition", "2,1", "--n", "2"),
    ("pw", "--frobenius", "3|x"),
    ("minorder", "--partition", "0"),
    ("maya", "--partition", "1,2"),
    ("piv", "--class", "gh"),
    ("piv", "catalog", "--max", "-1"),
    *NEGATIVE_PARAMETERS,
])
def test_invalid_input_exit_code(capsys, argv):
    # exit 1 is reserved for a failed verification
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hermitepw: error: ")
    assert captured.err.count("\n") == 1
    if argv in NEGATIVE_PARAMETERS:
        assert captured.err == "hermitepw: error: parameters must be non-negative\n"


def test_internal_fault_is_not_bad_input(capsys, monkeypatch):
    # exit 2 means bad input; a division that breaks an invariant must not map to it
    import hermitepw.polys as polys
    real = polys.poly_gcd
    monkeypatch.setattr(polys, "poly_gcd", lambda a, b: real(a, b) * IntPoly((1, 1)))
    with pytest.raises(ArithmeticError):
        main(["piv", "--class", "gh", "--m", "2", "--ell", "4", "--branch", "1"])
    assert "error:" not in capsys.readouterr().err


def _parse_poly(blob):
    # parsing a big integer back is limited like printing one
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return poly_from_json(blob)
    finally:
        sys.set_int_max_str_digits(old)


_HAS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                      reason="no int-to-str digit limit on this interpreter")


@_HAS_DIGIT_LIMIT
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_big_integers_print(capsys, fmt):
    # a valid input whose result has coefficients of more than 4300
    # digits prints at exit 0, and the interpreter's limit is restored
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "--format", fmt, "pw", "--partition", "3,2,1", "--shift", "-100")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    m = MayaDiagram.from_partition(Partition.parse("3,2,1")).shift(-100)
    expected = pseudo_wronskian(m)
    assert max(abs(c) for c in expected.coeffs).bit_length() > 4300 * 3.32
    if fmt == "json":
        assert _parse_poly(json.loads(out)["poly"]) == expected
    else:
        assert out.startswith(f"H[{m}] = ") and out.count("\n") == 1


@_HAS_DIGIT_LIMIT
def test_error_while_printing_is_not_bad_input(capsys, monkeypatch):
    # exit 2 is for input checks; a ValueError raised once the result is
    # computed propagates, and the digit limit is restored all the same
    import hermitepw.cli as cli

    def fail(*args):
        raise ValueError("printing failed")

    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "_emit", fail)
    with pytest.raises(ValueError, match="printing failed"):
        main(["pw", "--partition", "2,1"])
    assert sys.get_int_max_str_digits() == limit
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, digest", [
    # the first two evaluate only t-sided diagrams; the last three reach
    # s-only diagrams: the minimal form (7,2 | ), and (5,3,1 | ) and its shift
    ("pw --partition 3,2,1 --shift 5",
     "99056b0493b6d23638b52b92241af27a2cc643fb6572c061c68a0af24e72814d"),
    ("equiv --partition 3,2,1 --k -3",
     "9a3d56a6fa14f4a8fddf8b0b7499b6bd3ac51210be1dcb2191c623befbb8aa8c"),
    ("pw --partition 2,2,1,1,1,1",
     "ccc8226acf3e6c0b1eebe44d9aca14378ee2809bc7c62e9ac586f638019cbc44"),
    ("equiv --partition 3,2,1 --k 6",
     "6b924620f99f7e19a16152967a98e23ed83f59c1fa98f16d0adcb4232bf5a204"),
    ("equiv --frobenius 5,3,1| --k 2",
     "1d49269781e30630e1068947a933a6ff064ea18c32142b5794ef46b8b0b08c04"),
    # rows wider than the pins above: order 2 against 13 (twelve s, one t)
    # and order 4 against 14 (t-only)
    ("equiv --partition 12,1 --k 13",
     "00e5d7514c5cb1900a54a323fb69937b032a45aac7c953ad32c1bbc46ee39ccf"),
    ("equiv --partition 3,3,2,1 --k -10",
     "4329bfe7a3738d9f1158ffc7d479b3885c7898d603bbc4b22c48a4143db6d1b7"),
    # each diagram notation alone, on every subcommand that takes both
    ("pw --frobenius 1|0",
     "4e8d38b73e85f6a62dfbdc7300aba4c7e723da7a1dc8839c56edb06d75a162b9"),
    ("maya --partition 2,1",
     "47747f674d549bb210c6c0202adf1453ff5ac21780d263329611485b71e93922"),
    ("maya --frobenius 1|0 --shift 2",
     "34af314e841e87cf9ad5379b46bedda3ae5f304dc37c9bc066c4946e18c525fb"),
])
def test_pw_and_equiv_bytes_pinned(capsys, argv, digest):
    code, out = run(capsys, "--format", "json", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_catalog_bytes_pinned(capsys):
    code, out = run(capsys, "--format", "json", "piv", "catalog", "--max", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1ed2728f004fd8350ad54b78afaebc01ea8fb626d7f02a08d64f3e396c32b76b"


@pytest.mark.parametrize("argv, digest", [
    ("piv --class o --l1 1 --l2 2 --branch 1 --verify",
     "8381b0d8960e21a44d1cf9ed4bedf9575cc20caa4eb030f13836fefa202c5ba4"),
    ("piv --class gh --m 2 --ell 4 --branch 3 --verify",
     "5087c0dde74a312beb4bfc581fd4fb21a00e299811a6c742d06ddb21a22a4f63"),
    ("piv catalog --max 4",
     "1d9735578a05f459651218d0a2d296409148eba79b17cd1412fe037d3f51fa07"),
])
def test_piv_text_bytes_pinned(capsys, argv, digest):
    # the printed y(t) of each family, and the catalog's text lines
    code, out = run(capsys, "--format", "text", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_param, digest", [
    ("5", "edc43b19b22c0489c528280d2223d312915d8e72a06c30d78f3e9546a1b74c03"),
    ("6", "8bc04ef6ec38398e5b7cdbcb3c07325709b339cd15f316e396a5e6d0b288b0cb"),
])
def test_larger_catalog_bytes_pinned(capsys, max_param, digest):
    code, out = run(capsys, "--format", "json", "piv", "catalog", "--max", max_param)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest_under_optimize():
    # python -O strips assert statements; the embedded checks must still run
    src = Path(hermitepw.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-m", "hermitepw.cli", "selftest"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# one smoke run per script under scripts/, with a line its output must hold
SCRIPT_RUNS = [
    ("shift_equivalence_demo.py", "4,4,3,1,1",
     "origin   9  girth 4  (8,5,4,2 | )             H_std = 3360 * H_shifted   [ok]", "stdout"),
    ("minimal_order_survey.py", "6", "biggest saving: (1,1,1,1,1,1) drops 5 orders", "stdout"),
]


def test_every_script_has_a_smoke_run():
    # a script cannot be added, or outlive its subject, without a smoke run
    root = Path(hermitepw.__file__).resolve().parent.parent.parent
    assert sorted(run[0] for run in SCRIPT_RUNS) == sorted(p.name for p in (root / "scripts").glob("*.py"))


@pytest.mark.parametrize("script, arg, line, stream", SCRIPT_RUNS,
                         ids=[run[0].removesuffix(".py") for run in SCRIPT_RUNS])
def test_script_runs(script, arg, line, stream):
    root = Path(hermitepw.__file__).resolve().parent.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / script), arg],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert line in getattr(proc, stream).splitlines()
