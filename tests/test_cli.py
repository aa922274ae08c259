import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreider import __version__
from qreider.cli import main
from qreider.criteria import BetaWitness, very_ampleness
from qreider.document import parse
from qreider.report import report_to_json, run_document

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "docs" / "hirzebruch_n3.surf"
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
# child processes import qreider from this checkout, as the tests do
CHILD_PATH = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, CHILD_PATH))}


def run_cli(*args, stdin=None, flags=()):
    """``python [flags] -m qreider.cli args`` in a child process."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qreider.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
        env=CHILD_ENV,
    )
    return proc


def stdin_of(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin``: text over the UTF-8 bytes that the CLI reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def run_claims(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_claims.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )


@pytest.mark.parametrize("args, status", [(("--max-n", "2"), 0), (("--max-n", "1", "--depth", "1"), 1)])
def test_claim_sweep_script_exits_one_when_a_claim_fails(args, status):
    proc = run_claims(*args)
    assert proc.returncode == status, proc.stderr
    assert (" NO " in proc.stdout) == bool(status)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--depth", "0"), "--depth must be in 1..64, not 0"),
        (("--depth", "-3"), "--depth must be in 1..64, not -3"),
        (("--depth", "65"), "--depth must be in 1..64, not 65"),
        (("--max-n", "0"), "--max-n must be at least 1, not 0"),
        # integers are read as by ``qreider hirzebruch --n``: int() would run n = 1..11 for 1_1
        (("--max-n", "1_1"), "argument --max-n: invalid integer value: '1_1'"),
        (("--max-n", "\u0663"), "argument --max-n: invalid integer value: '\u0663'"),
        (("--depth", "2_4"), "argument --depth: invalid integer value: '2_4'"),
        (("--depth", "+8"), "argument --depth: invalid integer value: '+8'"),
    ],
)
def test_claim_sweep_script_rejects_out_of_range_arguments(args, message):
    proc = run_claims(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: run_claims.py" in proc.stderr
    assert f"error: {message}" in proc.stderr


@pytest.mark.parametrize("step", ["0", "-1/100", "0/7"])
def test_threshold_scan_rejects_a_step_that_is_not_positive(step):
    """A step <= 0 never reaches --stop; it is a usage error, not an endless loop."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "threshold_scan.py"), f"--step={step}"],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: threshold_scan.py" in proc.stderr
    assert f"error: --step must be positive, not {F(step)}" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--m2", "1/0"), ("--start", "3.4"), ("--step", "1e-2"), ("--stop", "1_0")])
def test_threshold_scan_reads_its_flags_as_exact_rationals(flag, value):
    """The flags take .surf rationals: a zero denominator, a decimal or an
    exponent is a usage error, not a traceback or a float read exactly."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "threshold_scan.py"), flag, value],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: threshold_scan.py" in proc.stderr
    assert f"error: argument {flag}: invalid rational value: '{value}'" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (("check",), "the following arguments are required: file"),
        (("hirzebruch", "--n", "x", "--part", "1"), "argument --n: invalid integer value: 'x'"),
        (("hirzebruch", "--n", "1_0", "--part", "1"), "argument --n: invalid integer value: '1_0'"),
        (("hirzebruch", "--n", "\u0663", "--part", "1"), "argument --n: invalid integer value: '\u0663'"),
        (("hirzebruch", "--n", "3", "--part", "+1"), "argument --part: invalid integer value: '+1'"),
        (("check", str(GOLDEN), "--depth", "8"), "unrecognized arguments: --depth 8"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
    ],
    ids=[
        "check-without-file",
        "non-integer-n",
        "underscore-n",
        "arabic-indic-n",
        "signed-part",
        "check-depth-flag",
        "unknown-command",
    ],
)
def test_usage_errors_exit_one(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert "usage: qreider" in proc.stderr
    assert f"error: {message}" in proc.stderr


def test_check_help_exits_zero_and_offers_no_depth_flag():
    proc = run_cli("check", "--help")
    assert proc.returncode == 0
    assert "--json" in proc.stdout
    assert "--depth" not in proc.stdout


def test_check_golden_file_exit_zero():
    proc = run_cli("check", str(GOLDEN))
    assert proc.returncode == 0, proc.stderr
    assert "chi = 5" in proc.stdout
    assert "not-established" in proc.stdout  # the very-ample query honestly fails


def test_check_json_validates_against_schema():
    proc = run_cli("check", str(GOLDEN), "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    chi = next(q for q in payload["queries"] if q["query"].startswith("chi"))
    assert chi["values"]["chi"] == {"num": 5, "den": 1}


def test_json_rationals_survive_exactly():
    report = run_document(parse(GOLDEN.read_text()), source=str(GOLDEN))
    payload = report_to_json(report)
    jsonschema.validate(payload, SCHEMA)
    free = next(q for q in payload["queries"] if q["query"].startswith("check-free"))
    mu = free["values"]["mu"]
    assert F(mu["num"], mu["den"]) == F(9, 10)
    for line in free["trace"]:
        assert isinstance(line["lhs"]["num"], int) and isinstance(line["lhs"]["den"], int)


def test_stdin_input():
    text = "gram = [[-1,1],[1,0]]; K = -2G - 3F; chi_O = 1\ncurves\nG = G\nF = F\ndivisors\nH = G + F\nqueries\nchi H"
    proc = run_cli("check", "-", stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert "chi = 3" in proc.stdout


def test_parse_error_exit_one():
    proc = run_cli("check", "-", stdin="gram = [[0,1],[2,0]]; K = -2G - 5F; chi_O = 1")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_missing_file_exit_one():
    proc = run_cli("check", "no_such_file.surf")
    assert proc.returncode == 1


def test_a_directory_is_input_that_cannot_be_read(tmp_path):
    proc = run_cli("check", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: cannot read {tmp_path}: Is a directory\n"


def test_a_file_that_is_not_utf8_is_input_that_cannot_be_read(tmp_path):
    path = tmp_path / "latin1.surf"
    path.write_bytes("gram = [[0, 1], [1, 0]]  # \xe9\n".encode("latin-1"))
    proc = run_cli("check", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 in position 27")


def test_stdin_that_is_not_utf8_is_input_that_cannot_be_read():
    env = {**CHILD_ENV, "PYTHONIOENCODING": "utf-8:strict"}
    cmd = [sys.executable, "-m", "qreider.cli", "check", "-"]
    proc = subprocess.run(cmd, input=b"chi_O = 1 # \xe9\n", capture_output=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: cannot read <stdin>: 'utf-8' codec can't decode byte 0xe9 in position 12")


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_stdin_is_decoded_as_a_file_is_whatever_the_locale(locale):
    # these locales give stdin the surrogateescape handler, which would read the comment's 0xe9 as an escape
    env = {key: value for key, value in CHILD_ENV.items() if key not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env["LC_ALL"] = locale
    text = b"gram = [[-1, 1], [1, 0]]; K = -2G - 3F; chi_O = 1  # \xe9\ncurves\nG = G\nF = F\nqueries\nchi G\n"
    cmd = [sys.executable, "-m", "qreider.cli", "check", "-"]
    proc = subprocess.run(cmd, input=text, capture_output=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: cannot read <stdin>: 'utf-8' codec can't decode byte 0xe9 in position 53")


def test_query_error_sets_exit_one_but_not_established_does_not():
    # min degree of a non-nef class is a query error
    text = (
        "gram = [[-3,1],[1,0]]; K = -2G - 5F; chi_O = 1\n"
        "curves\nG = G\nF = F\n"
        "cone\nhirzebruch = 3\n"
        "points\np = G:1 F:1\n"
        "divisors\nB = 1/2 G\nL = 3G + 4F\nM = L - B\n"
        "queries\ncheck-free point=p B=B M=M"
    )
    proc = run_cli("check", "-", stdin=text)
    assert proc.returncode == 1
    assert "error" in proc.stdout

    ok_text = text.replace("L = 3G + 4F", "L = 1G + 10F")
    proc = run_cli("check", "-", stdin=ok_text)
    assert proc.returncode == 0, proc.stderr


def test_hirzebruch_subcommand_text_and_json():
    proc = run_cli("hirzebruch", "--n", "3", "--part", "1")
    assert proc.returncode == 0, proc.stderr
    assert "ok: yes" in proc.stdout
    proc = run_cli("hirzebruch", "--n", "1", "--part", "2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    claim = payload["queries"][0]
    assert claim["flags"]["ok"] is True
    assert any(c["query"].startswith("tangent separation") for c in claim["checks"])


def test_main_entry_returns_exit_codes_in_process(capsys):
    assert main(["check", str(GOLDEN)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Runs each argument list given as JSON through main in this one process and
# prints [exit code, stdout, stderr] for each; SystemExit gives its code.
CALLS_CHILD = r"""
import contextlib, io, json, sys
from qreider.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _calls_in_one_process(argvs: list) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_CHILD, json.dumps(argvs)], capture_output=True, text=True, timeout=120, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr

    def drop(node):  # elapsed_ms is the one field that differs between runs
        if isinstance(node, dict):
            return {k: drop(v) for k, v in node.items() if k != "elapsed_ms"}
        return [drop(v) for v in node] if isinstance(node, list) else node

    results = json.loads(proc.stdout)
    for result in results:
        if result[1].startswith("{"):
            result[1] = drop(json.loads(result[1]))
    return results


def test_repeated_in_process_calls_of_main_answer_as_a_first_call(tmp_path):
    sequence = [
        ["check"],
        ["--version"],
        ["check", str(GOLDEN)],
        ["check", str(GOLDEN), "--json"],
        ["hirzebruch", "--n", "3", "--part", "1"],
        ["check", str(tmp_path / "missing.surf")],
    ]
    repeated = _calls_in_one_process(sequence + sequence)
    for argv, in_sequence, second_time in zip(sequence, repeated, repeated[len(sequence) :]):
        assert in_sequence == second_time == _calls_in_one_process([argv])[0], argv
    codes = [code for code, _, _ in repeated[: len(sequence)]]
    assert codes == [1, 0, 0, 0, 0, 1]
    assert repeated[1][1] == f"qreider {__version__}\n"


def test_hirzebruch_claim_query_matches_search_example():
    text = "queries\nhirzebruch-claim n=1 part=2"
    report = run_document(parse(text))
    result = report.results[0]
    assert result.status == "report"
    assert result.flags["ok"] is True
    tangent = next(c for c in result.checks if c.query.startswith("tangent separation"))
    assert tangent.status == "established"
    assert tangent.found is True


def test_very_ample_query_shows_the_forced_square_conflict():
    report = run_document(parse("queries\ncheck-very-ample m2=8 mindeg=100"))
    result = report.results[0]
    assert result.status == "not-established"
    forced = next(l for l in result.trace if "forces M^2 > 8" in l.text)
    assert forced.lhs == 8 and forced.rel == ">" and forced.rhs == 8 and not forced.holds


def test_plc_ties_break_by_declaration_order():
    text = (
        "gram=[[0,1],[1,0]]; K = -2A - 2B; chi_O=1\n"
        "curves\nZc = A\nAc = B\n"  # sorted order would put Ac first
        "points\np = Zc:1 Ac:1\n"
        "divisors\nBd = 1/2 Zc + 1/2 Ac\nDd = 3/4 Zc + 3/4 Ac\n"
        "queries\nplc-threshold point=p B=Bd D=Dd\n"
    )
    result = run_document(parse(text)).results[0]
    assert result.labels["critical"] == "Zc"
    assert result.labels["achievers"] == "Zc, Ac"


def test_check_separate_query():
    text = (
        "gram = [[-1,1],[1,0]]; K = -2G - 3F; chi_O = 1\n"
        "curves\nG = G\nF = F\n"
        "cone\nhirzebruch = 1\n"
        "points\np = F:1\nq = F:1\n"
        "divisors\nB = 1/2 G\nM = 5/2 G + 6F\n"
        "queries\n"
        "check-separate p=p q=q B=B M=M\n"
        "check-separate p=p q=q B=B M=M mindeg_p=7/2 mindeg_q=7/2 mindeg_pq=7/2\n"
    )
    report = run_document(parse(text))
    defaulted, overridden = report.results
    assert defaulted.status in ("established", "not-established")
    assert overridden.values["mindeg_pq"] == F(7, 2)
    assert overridden.status == "established"


# p has multiplicity 2 on G and on F, so B gives it mu = 18/5, enough for the
# high-multiplicity rules: p named twice would be "separated" from itself
TWO_POINT_DOCUMENT = """gram = [[-1, 1], [1, 0]]; K = -2G - 3F; chi_O = 1
curves
G = G
F = F
cone
hirzebruch = 1
points
p = G:2 F:2
q = F:1
tangents
v = p G:1:z
divisors
L = 3G + 12F
B = 9/10 G + 9/10 F
M = L - B
queries
"""


@pytest.mark.parametrize(
    "query, message",
    [
        ("check-free point=p B=5 G M=M", "B= is not a boundary: its coefficients must lie in [0, 1)"),
        ("check-free point=p B=-1/2 G M=7/2 G + 12F", "B= is not a boundary: its coefficients must lie in [0, 1)"),
        ("check-separate p=p q=q B=G M=2G + 12F", "B= is not a boundary: its coefficients must lie in [0, 1)"),
        ("check-tangent tangent=v B=1/3 G M=M", "B + M is not integral"),
        ("check-free point=p B=B M=M + 1/2 F", "B + M is not integral"),
        ("check-separate p=p q=p B=B M=M", "p= and q= name the same point 'p'; separation needs two points"),
        ("search goal=separate p=p q=p B=B M=M", "search goal 'separate' needs two different points, not 'p' twice"),
    ],
    ids=["free-coefficient-5", "free-negative", "separate-coefficient-1", "tangent-sum", "free-sum", "check-same-point", "search-same-point"],
)
def test_check_queries_need_a_boundary_with_integral_sum_and_two_points(query, message):
    (result,) = run_document(parse(TWO_POINT_DOCUMENT + query + "\n")).results
    assert (result.status, result.error) == ("error", message)


@pytest.mark.parametrize(
    "query, keys",
    [
        ("chi", "H"),
        ("check-free", "point, B, M, mindeg, beta2, beta1"),
        ("check-separate", "p, q, B, M, mindeg_p, mindeg_q, mindeg_pq, beta2_p, beta2_q, beta1_p, beta1_q"),
        ("check-tangent", "tangent, B, M, mindeg_p, mindeg_Z, beta2_p, beta2_V, beta1"),
        ("check-very-ample", "M, m2, mindeg, beta2, beta1"),
        ("check-corollary2", "M, m2, mindeg"),
        ("plc-threshold", "point, B, D, mode, weak, c0"),
        ("hirzebruch-claim", "n, part, m, depth"),
        ("search goal=free", "goal, B, M, depth, point, beta2, beta1"),
        ("search goal=separate", "goal, B, M, depth, p, q"),
        ("search goal=tangent", "goal, B, M, depth, tangent"),
        ("search goal=very-ample", "goal, B, M, depth, beta2, beta1"),
    ],
)
def test_an_unknown_key_error_lists_every_key_the_query_reads_in_order(query, keys):
    (result,) = run_document(parse(f"queries\n{query} bogus=1\n")).results
    assert result.error == f"unknown argument bogus= for {query.split()[0]!r} (expected {keys})"


@pytest.mark.parametrize(
    "text",
    [
        "gram = [[1/0]]; K = -G; chi_O = 1\n",
        "gram = [[-1]]; K = -G; chi_O = 1\ncurves\nG = G\nqueries\ncheck-very-ample M=2/0G\n",
        "gram = [[-1]]; K = -G; chi_O = 1\nparams\ne = (1, 0)\n",
    ],
    ids=["gram", "inline-query", "empty-domain"],
)
def test_bad_literals_exit_one_not_two(text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    assert main(["check", "-"]) == 1
    captured = capsys.readouterr()
    assert "line " in captured.out + captured.err


def test_search_with_no_generator_in_the_degree_filter_errors_before_any_candidate():
    # no generator is flagged through-p, and M is nef nowhere on the schedule
    text = (
        "gram = [[-1, 1], [1, 0]]; K = -2G - 3F; chi_O = 1\n"
        "curves\nG = G\nF = F\ncone\ngenerator = G\ngenerator = F\npoints\np = G:1\nparams\ne = (0, 1)\n"
        "divisors\nB = (1 - e)G\nM = 20G + 8F - B\n"
        "queries\nsearch goal=free point=p B=B M=M depth=4\n"
    )
    result = run_document(parse(text)).results[0]
    assert result.status == "error"
    assert result.error == "no cone generator matches filter 'through-p'"
    assert result.attempts is None


# M = F - (1 - e)G has M.F = e - 1 < 0, so M is nef nowhere on the schedule
NEVER_NEF_SEARCH = """gram = [[-1, 1], [1, 0]]; K = -2G - 3F; chi_O = 1
curves
G = G
F = F
cone
hirzebruch = 1
points
p = G:1 F:1
tangents
v = p G:1:z
params
e = (0, 1)
divisors
B = (1 - e)G
M = F - B
queries
"""


@pytest.mark.parametrize(
    "query, message",
    [
        ("search goal=free point=zzz B=B M=M", "no point named 'zzz'"),
        ("search goal=separate p=zzz q=p B=B M=M", "no point named 'zzz'"),
        ("search goal=separate p=p q=zzz B=B M=M", "no point named 'zzz'"),
        ("search goal=tangent tangent=zzz B=B M=M", "no tangent named 'zzz'"),
    ],
)
def test_search_resolves_marked_names_before_any_candidate(query, message, capsys, monkeypatch):
    """An unknown point or tangent is an error even when no candidate is nef."""
    monkeypatch.setattr("sys.stdin", stdin_of(NEVER_NEF_SEARCH + query + "\n"))
    assert main(["check", "-"]) == 1
    assert capsys.readouterr().out == f"report for <stdin>\n== {query}\n   error: {message}\n"

    monkeypatch.setattr("sys.stdin", stdin_of(NEVER_NEF_SEARCH + query + "\n"))
    assert main(["check", "-", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    (result,) = payload["queries"]
    del result["elapsed_ms"]
    assert result == {"query": query, "status": "error", "error": message}


@pytest.mark.parametrize(
    "args, message",
    [
        ("n=x part=1", "n='x' must be an integer >= 1"),
        ("n=0 part=1", "n='0' must be an integer >= 1"),
        ("n=1_0 part=1", "n='1_0' must be an integer >= 1"),
        ("n=-2 part=1", "n='-2' must be an integer >= 1"),
        (f"n={'9' * 5000} part=1", f"n={'9' * 5000!r} must be an integer >= 1"),
        ("n=2 part=3", "part='3' must be an integer in 1..2"),
        ("n=2 part=one", "part='one' must be an integer in 1..2"),
        ("n=2 part=2 m=1_0", "m='1_0' must be an integer >= 1"),
        ("n=2 part=2 m=2.5", "m='2.5' must be an integer >= 1"),
        ("n=2 part=2 m=0", "m='0' must be an integer >= 1"),
        ("part=1", "query 'hirzebruch-claim' needs argument n=..."),
    ],
)
def test_claim_integer_arguments_are_read_like_depth(args, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(f"queries\nhirzebruch-claim {args}\n"))
    assert main(["check", "-"]) == 1
    assert f"   error: {message}\n" in capsys.readouterr().out


def test_claim_integer_arguments_accept_plain_digits(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("queries\nhirzebruch-claim n=02 part=2 m=10\n"))
    assert main(["check", "-"]) == 0
    out = capsys.readouterr().out
    assert "   n = 2\n" in out and "   m = 10\n" in out and "   ok: yes\n" in out


def test_a_minimal_degree_next_to_the_corollary_threshold_is_established(capsys, monkeypatch):
    scale = 10**400
    deg = 2 + F(isqrt(2 * scale * scale) + 1, scale)  # about 1e-400 above 2 + sqrt(2)
    header = GOLDEN.read_text().split("\nqueries\n")[0]
    query = f"check-corollary2 m2=100 mindeg={deg.numerator}/{deg.denominator}"
    monkeypatch.setattr("sys.stdin", stdin_of(f"{header}\nqueries\n{query}\n"))
    assert main(["check", "-", "--json"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["queries"]
    assert (result["status"], result["rule"]) == ("established", "very-ample/threshold")
    (b2,), (b1,) = ([F(v["num"], v["den"]) for v in result["witness"][k]] for k in ("beta2", "beta1"))
    assert very_ampleness(100, deg, BetaWitness.single(b2, b1)).established


def test_a_very_ample_witness_with_beta2_one_is_not_established(capsys, monkeypatch):
    queries = (
        "check-very-ample m2=20 mindeg=5 beta2=1 beta1=1\n"
        "search goal=very-ample B=Bfam M=Mfam beta2=1 beta1=1 depth=3\n"
    )
    monkeypatch.setattr("sys.stdin", stdin_of(GOLDEN.read_text() + queries))
    assert main(["check", "-"]) == 0
    out = capsys.readouterr().out
    check, search = out.split("== check-very-ample m2=20")[1].split("== search goal=very-ample")
    assert check == (
        " mindeg=5 beta2=1 beta1=1\n"
        "   status: not-established   rule: very-ample/witness\n"
        "   M2 = 20\n"
        "   mindeg = 5\n"
        "   witness: beta2 = 1 [global]; beta1 = 1 [global]\n"
        "   beta2 >= 2: 1 >= 2  [FAILS]\n"
        "   M^2 > 2*beta2^2: 20 > 2  [ok]\n"
        "   min degree >= 2*beta1: 5 >= 2  [ok]\n"
    )
    assert search == (
        " B=Bfam M=Mfam beta2=1 beta1=1 depth=3\n   status: not-established\n   search: found=False attempts=2\n"
    )
    monkeypatch.setattr("sys.stdin", stdin_of(GOLDEN.read_text() + queries))
    assert main(["check", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    witness = next(q for q in payload["queries"] if q["query"].startswith("check-very-ample m2=20"))["witness"]
    assert witness["beta2_roles"] == witness["beta1_roles"] == ["global"]


CHOICE_DOC = """gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1
curves
G = G
F = F
cone
hirzebruch = 3
points
p = G:1 F:1
divisors
B = 1/2 G
M = 3G + 8F - B
D = 1/2 G + 3/4 F
queries
"""


WEAK_SPELLINGS = "must be one of 1, true, yes, 0, false, no"


@pytest.mark.parametrize(
    "query, message",
    [
        ("plc-threshold point=p B=B D=D mode=prime c0=F weak=maybe", f"weak='maybe' {WEAK_SPELLINGS}"),
        ("plc-threshold point=p B=B D=D mode=prime c0=F weak=", f"weak='' {WEAK_SPELLINGS}"),
        ("plc-threshold point=p B=B D=D mode=bogus", "mode='bogus' must be one of basic, cap3, prime"),
    ],
)
def test_choice_arguments_name_the_key_and_the_accepted_values(query, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(CHOICE_DOC + query + "\n"))
    assert main(["check", "-"]) == 1
    assert capsys.readouterr().out == f"report for <stdin>\n== {query}\n   error: {message}\n"


@pytest.mark.parametrize("mode", ["", " mode=basic", " mode=cap3"])
@pytest.mark.parametrize("extra", [" c0=nosuch", " weak=true", " c0=F weak=false"])
def test_c0_and_weak_are_errors_outside_the_primed_mode(mode, extra, capsys, monkeypatch):
    query = "plc-threshold point=p B=B D=D" + mode + extra
    monkeypatch.setattr("sys.stdin", stdin_of(CHOICE_DOC + query + "\n"))
    assert main(["check", "-"]) == 1
    assert capsys.readouterr().out == f"report for <stdin>\n== {query}\n   error: c0= and weak= apply only to mode=prime\n"


def test_the_basic_context_warning_is_a_note_on_every_query_that_draws_it():
    """CHOICE_DOC's D has ord_p(D) = 5/4 at p, where 2 - mu = 3/2.  The child
    runs with every warning an error, so the note cannot come from one."""
    note = "threshold taken with ord_p(D) = 5/4, not the usual 2 - mu = 3/2"
    text = CHOICE_DOC + "plc-threshold point=p B=B D=D\nplc-threshold point=p B=B D=D mode=basic\n"
    strict = ("-X", "dev", "-W", "error")
    shown = run_cli("check", "-", stdin=text, flags=strict)
    assert (shown.returncode, shown.stderr) == (0, "")
    assert shown.stdout.count(f"   note: {note}\n") == 2
    shown = run_cli("check", "-", "--json", stdin=text, flags=strict)
    assert (shown.returncode, shown.stderr) == (0, "")
    payload = json.loads(shown.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert [q["notes"] for q in payload["queries"]] == [[note], [note]]


def test_weak_spellings_turn_the_weak_boundary_on_and_off(capsys, monkeypatch):
    """With c0 = F, the other curve G has b + d = 1 exactly, so the weak
    boundary adds G to the achievers of the threshold."""
    outputs = {}
    for weak in ("", " weak=1", " weak=true", " weak=YES", " weak=0", " weak=false", " weak=No"):
        query = "plc-threshold point=p B=B D=D mode=prime c0=F" + weak
        monkeypatch.setattr("sys.stdin", stdin_of(CHOICE_DOC + query + "\n"))
        assert main(["check", "-"]) == 0
        outputs[weak] = capsys.readouterr().out.split("\n", 2)[2]  # the result after its query line
    on = {outputs[w] for w in (" weak=1", " weak=true", " weak=YES")}
    off = {outputs[w] for w in ("", " weak=0", " weak=false", " weak=No")}
    assert len(on) == len(off) == 1 and on != off
    assert "   achievers: one-cap, G\n" in on.pop() and "   achievers: one-cap\n" in off.pop()


ONE_DOC = """gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1
curves
one = G
F = F
points
p = one:1 F:1
divisors
B = 1/2 one
D = 3/4 one + 3/4 F
E = 1/2 one + 1/2 F
queries
plc-threshold point=p B=B D=D
plc-threshold point=p B=B D=E mode=prime c0=F weak=true
"""


def test_a_curve_named_one_is_critical_and_not_the_primed_cap():
    """The primed variant's constant cap is labelled one-cap, which no .surf name can be, so a curve
    named one is reported as the critical curve, as a curve named G would be."""
    basic, prime = run_document(parse(ONE_DOC)).results
    assert (basic.values["c"], basic.labels) == (F(2, 3), {"critical": "one", "achievers": "one"})
    # with weak=true the curve one has (1 - 1/2)/(1/2) = 1, the cap's value
    assert (prime.values["c"], prime.labels) == (F(1), {"critical": "one", "achievers": "one-cap, one"})
    assert run_document(parse(ONE_DOC.replace("one", "G"))).results[0].labels == {"critical": "G", "achievers": "G"}


GENERATOR_SEARCH_DOC = """gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1
curves
G = G
F = F
cone
generator = G
generator = F, through-p
generator = G + 3F, through-p
points
q = F:1
params
e = (0, 1)
divisors
B = (1 - e)G + 1/2 F
queries
search goal=free point=q B=B M=3G + 7F - B depth=8
search goal=free point=q B=B M=3G + 6F - B depth=8
"""


def test_search_over_a_generator_cone_found_and_exhausted():
    # M.G = 1/2 - 3e with L = 3G + 7F: turned down at e = 1/4, found at e = 1/8;
    # M.G = -1/2 - 3e with L = 3G + 6F: every candidate is turned down
    found, exhausted = run_document(parse(GENERATOR_SEARCH_DOC)).results
    assert (found.status, found.found, found.attempts, found.params) == ("established", True, 2, {"e": F(1, 8)})
    assert [(l.text, l.lhs) for l in found.trace[:4]] == [
        ("M.C_0 >= 0 (nef)", F(1, 8)),
        ("M.C_1 >= 0 (nef)", F(17, 8)),
        ("M.C_2 >= 0 (nef)", F(13, 2)),
        ("M^2 > 0 (big)", F(901, 64)),
    ]
    assert found.values == {} and found.notes == ("witness found by search",)
    assert (exhausted.status, exhausted.found, exhausted.attempts) == ("not-established", False, 7)
    assert exhausted.params == {} and exhausted.trace == () and exhausted.notes == ()


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from([GOLDEN.read_text(), ""]))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.text(max_size=8)) + text[end:]
    return text


@given(mutated_documents())
@settings(max_examples=200, deadline=None)
def test_any_text_on_stdin_exits_zero_or_one(text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, stdin_of(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1), err.getvalue()
