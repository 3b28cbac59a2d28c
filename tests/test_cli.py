"""Command-line plumbing: exit codes, JSON-on-stdout discipline, round-trips."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fishbone import acceptance, cli, families, report
from fishbone.cli import main
from fishbone.ordertype import MAX_NESTING

DIAMOND = '{"elements": ["a","b","c","d"], "le": [["a","b"],["a","c"],["b","d"],["c","d"]]}'


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(DIAMOND, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- poset


def test_poset_spine(capsys, diamond_file):
    code, out, err = run(capsys, "poset", "spine", diamond_file)
    assert code == 0
    cert = json.loads(out)
    assert cert["chain"] == ["a", "b", "d"]
    assert cert["antichains"] == [["a"], ["b", "c"], ["d"]]
    assert "spine" in err and "elapsed" not in out


def test_poset_check_pass_and_fail(capsys, tmp_path, diamond_file):
    code, out, _ = run(capsys, "poset", "spine", diamond_file)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "poset", "check", diamond_file, "--cert", str(cert_path))
    assert code == 0 and json.loads(out)["status"] == "pass"

    bad = tmp_path / "bad.json"
    bad.write_text('{"chain": ["a","d"], "antichains": [["a"],["b","c"],["d"]]}')
    code, out, _ = run(capsys, "poset", "check", diamond_file, "--cert", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["detail"]["reason"] == "part must meet the chain exactly once"


def test_poset_canon_is_idempotent(capsys, tmp_path, diamond_file):
    code, out1, _ = run(capsys, "poset", "canon", diamond_file)
    assert code == 0
    again = tmp_path / "canon.json"
    again.write_text(out1, encoding="utf-8")
    code, out2, _ = run(capsys, "poset", "canon", str(again))
    assert code == 0 and out2 == out1


def test_poset_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "poset", "spine", str(tmp_path / "nope.json"))
    assert code == 2 and out == "" and "error:" in err


def test_poset_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elements": ["a"]}', encoding="utf-8")
    code, _, err = run(capsys, "poset", "spine", str(path))
    assert code == 2 and "error:" in err
    path.write_text("not json", encoding="utf-8")
    assert run(capsys, "poset", "spine", str(path))[0] == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": [[1]], "le": []}',
        '{"elements": ["a", "b"], "le": 5}',
        '{"elements": "ab", "le": []}',
        '{"elements": [true], "le": []}',
        '{"elements": ["a", "a"], "le": []}',
        '{"elements": ["a", "b"], "le": [[["a"], "b"]]}',
        '{"elements": [0, 1], "le": [[true, 1]]}',
        '{"elements": [0, 1], "le": [[1.0, 0]]}',
        '{"elements": ["a", "b", "c"], "le": [["a", "b", "c"]]}',
        '{"elements": ["a"], "le": [["a"]]}',
        '{"elements": ["a"], "le": [[null, "a"]]}',
        '{"elements": [1.5], "le": []}',
    ],
)
def test_poset_malformed_members(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "poset", "spine", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


CHAIN2 = '{"elements": ["a", "b"], "le": [["a", "b"]]}'


@pytest.mark.parametrize(
    "text",
    [
        '{"chain": [["a"]], "antichains": [["a"], ["b"]]}',
        '{"chain": [], "antichains": null}',
        '{"chain": "ab", "antichains": [["a"], ["b"]]}',
        '{"chain": ["a", "b"], "antichains": "ab"}',
        '{"chain": ["a", "b"], "antichains": [["a"], "b"]}',
        '{"chain": ["a", true], "antichains": [["a"], ["b"]]}',
        '{"chain": ["a", "b"], "antichains": [["a"], [["b"]]]}',
    ],
)
def test_certificate_malformed_members(capsys, tmp_path, text):
    poset = tmp_path / "chain2.json"
    poset.write_text(CHAIN2, encoding="utf-8")
    cert = tmp_path / "cert.json"
    cert.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "poset", "check", str(poset), "--cert", str(cert))
    assert code == 2 and out == "" and err.startswith("error:")


DEEP = "[" * 100_000 + "]" * 100_000


def test_a_deeply_nested_poset_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP, encoding="utf-8")
    code, out, err = run(capsys, "poset", "spine", str(path))
    assert (code, out, err) == (2, "", "error: poset JSON nested too deeply\n")


def test_a_deeply_nested_certificate_file_is_a_usage_error(capsys, tmp_path, diamond_file):
    cert = tmp_path / "deep.json"
    cert.write_text(DEEP, encoding="utf-8")
    code, out, err = run(capsys, "poset", "check", diamond_file, "--cert", str(cert))
    assert (code, out, err) == (2, "", "error: certificate JSON nested too deeply\n")


def test_poset_cyclic_file(capsys, tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text('{"elements": ["a","b"], "le": [["a","b"],["b","a"]]}')
    code, _, err = run(capsys, "poset", "spine", str(path))
    assert code == 2 and "error:" in err


# Arbitrary JSON, biased towards the shapes the loaders accept: small ids,
# the expected keys, lists of ids and lists of such lists.
IDS = st.sampled_from(["a", "b", "c", 0, 1])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | IDS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["elements", "le", "chain", "antichains", "x"]), inner, max_size=3),
    max_leaves=10,
)
ID_LISTS = st.lists(IDS, max_size=4)
POSET_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {
        "elements": JSON_VALUES | st.lists(IDS, unique=True, max_size=4),
        "le": JSON_VALUES | st.lists(st.tuples(IDS, IDS).map(list), max_size=3),
    }
)
CERT_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"chain": JSON_VALUES | ID_LISTS, "antichains": JSON_VALUES | st.lists(ID_LISTS | JSON_VALUES, max_size=4)}
)


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(poset=POSET_DOCS, cert=CERT_DOCS)
def test_poset_files_never_escape_the_exit_codes(poset, cert):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("poset", poset), ("diamond", json.loads(DIAMOND)), ("cert", cert)):
            paths[name] = str(Path(tmp, name + ".json"))
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        # The valid diamond lets every example reach the certificate loader.
        for argv in (["poset", "check", paths["poset"], "--cert", paths["cert"]],
                     ["poset", "check", paths["diamond"], "--cert", paths["cert"]],
                     ["poset", "spine", paths["poset"]],
                     ["poset", "canon", paths["poset"]]):
            code, out, _ = quiet_main(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                report = json.loads(out)
                assert report["status"] == "fail" and report["witness"] is not None


# ----------------------------------------------------------------------- ot


def test_ot_check_report(capsys):
    code, out, _ = run(capsys, "ot", "check", "w[w*]")
    assert code == 0
    report = json.loads(out)
    assert report["vacillating"] is False
    assert report["rank"] == 2


def test_ot_check_parse_error(capsys):
    code, out, err = run(capsys, "ot", "check", "w[[")
    assert code == 2 and out == "" and "error:" in err


# Sums around repetitions take the most stack per bracket in every recursion
# of ``ot check``: the parser, then normalize, the invariants' fold and render
# inside term_report.
def deepest(depth):
    return "w+w*[" * depth + "w" + "]" * depth


def test_ot_check_at_the_nesting_cap(capsys):
    for _ in range(2):  # a repeat report must fit as well as the first
        code, out, _ = run(capsys, "ot", "check", deepest(MAX_NESTING))
        assert code == 0
    assert json.loads(out)["term"] == deepest(MAX_NESTING)


@pytest.mark.parametrize(
    "text",
    [deepest(MAX_NESTING + 1), "w[" * 3000 + "1" + "]" * 3000, "(" * 3000 + "w" + ")" * 3000],
    ids=["one-over-cap", "w-3000", "paren-3000"],
)
def test_ot_check_too_deep_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "ot", "check", text)
    assert code == 2 and out == "" and "nested deeper" in err


# ------------------------------------------------------------------- family


def test_family_window_stdout(capsys):
    code, out, _ = run(capsys, "family", "window", "P3", "--spec", "x=1,y=1")
    assert code == 0
    assert json.loads(out)["elements"] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def test_family_window_feeds_poset_subcommand(capsys, tmp_path):
    out_path = tmp_path / "win.json"
    _, window_json, _ = run(capsys, "family", "window", "P5", "--spec", "n=0:1,c=2")
    out_path.write_text(window_json, encoding="utf-8")
    code, out, _ = run(capsys, "poset", "spine", str(out_path))
    assert code == 0 and len(json.loads(out)["antichains"]) >= 1


def test_family_window_is_deterministic(capsys):
    args = ("family", "window", "P2", "--spec", "z=2,n=2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_family_check_pass_fail_usage(capsys):
    code, out, _ = run(capsys, "family", "check", "P1", "--claim", "pigeonhole",
                       "--params", "m=3")
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "family", "check", "P3", "--claim", "atomic_antichain",
                       "--params", "n=1,m=1,B=3")
    assert code == 1 and json.loads(out)["status"] == "fail"
    assert run(capsys, "family", "check", "P1", "--claim", "bogus")[0] == 2
    assert run(capsys, "family", "check", "P1", "--claim", "pigeonhole",
               "--params", "m=1:2")[0] == 2
    assert run(capsys, "family", "check", "P9", "--claim", "x")[0] == 2


def test_family_check_rejects_unknown_parameters(capsys):
    code, out, err = run(capsys, "family", "check", "P3", "--claim", "row_bound",
                         "--params", "y=1,B=3,zz=2")
    assert code == 2 and out == "" and "zz" in err
    code, out, _ = run(capsys, "family", "check", "P4", "--claim", "no_domination",
                       "--params", "n=1,m=2,B=2,slack=1")
    assert code == 0 and json.loads(out)["params"]["slack"] == 1


@pytest.mark.parametrize(
    "family, claim, params",
    [
        ("P3", "atomic_antichain", "n=0,m=1,B=-1"),
        ("P4", "no_domination", "n=1,m=2,B=-1"),
        ("P4", "no_domination", "n=1,m=2,B=2,slack=-5"),
    ],
)
def test_family_check_rejects_negative_parameters(capsys, family, claim, params):
    code, out, err = run(capsys, "family", "check", family, "--claim", claim, "--params", params)
    assert code == 2 and out == "" and "is not a natural number" in err


def test_family_window_bad_spec(capsys):
    assert run(capsys, "family", "window", "P3", "--spec", "x")[0] == 2
    assert run(capsys, "family", "window", "P3", "--spec", "")[0] == 2


CAP = families.WINDOW_CAP


# The smallest windows past the cap (P2's sizes are even), and one whose
# numbers would ask for 148 TiB.
@pytest.mark.parametrize(
    "family, spec, size",
    [
        ("P1", f"n={(CAP - 4) // 2}", CAP + 1),
        ("P2", f"z=0,n={CAP // 2}", CAP + 2),
        ("P3", f"x={CAP},y=0", CAP + 1),
        ("P4", f"x=0,y=0,z={CAP}", CAP + 1),
        ("P5", f"n=0:{CAP},c=0", CAP + 1),
        ("P3", "x=3000,y=3000", 3001**2),
    ],
)
def test_windows_past_the_cap_are_usage_errors(capsys, family, spec, size):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "family", "window", family, "--spec", spec)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "") and err == f"error: family {family} window of {size} elements exceeds its cap {CAP}\n"


def test_the_window_cap_counts_natural_axes_from_zero():
    # x=-100000:3 is x=0..3, as in the window itself.
    code, out, _ = quiet_main(["family", "window", "P3", "--spec", "x=-100000:3,y=0:9"])
    assert code == 0 and len(json.loads(out)["elements"]) == 40


@pytest.mark.parametrize(
    "family, spec, message",
    [
        ("P3", "x=1,y=2,q=3", "family P3 has no axis 'q'; its axes are x, y"),
        ("P1", "n=2,z=5", "family P1 has no axis 'z'; its axes are n"),
        ("P5", "c=3,n=1,x=0:2", "family P5 has no axis 'x'; its axes are n, c"),
        ("P3", "x=1", "family P3 needs a bound for axis 'y'; its axes are x, y"),
        ("P4", "x=1,z=2", "family P4 needs a bound for axis 'y'; its axes are x, y, z"),
        ("P2", "n=1,q=4", "family P2 has no axis 'q'; its axes are z, n"),
    ],
)
def test_window_spec_axes_must_be_the_familys(capsys, family, spec, message):
    # An axis the family lacks used to be ignored, and a missing one was
    # reported with the quotes of a KeyError.
    assert run(capsys, "family", "window", family, "--spec", spec) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "window", "P3", "--spec", "x=2,y=1,x=3"),
        ("family", "check", "P1", "--claim", "spine_partition", "--params", "N=1,N=2"),
    ],
)
def test_repeated_axis_keys_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "repeated key" in err


# ------------------------------------------------------------------- verify
#
# The desk checks of the verify module run through `family check P5`.


def claim_argv(family, claim, **values):
    """``family check`` argv with each required parameter of the claim at 0,
    then ``values``."""
    parameters = inspect.signature(report.CLAIMS[f"{family}.{claim}"]).parameters
    params = {k: 0 for k, p in parameters.items() if p.default is p.empty} | values
    return ("family", "check", family, "--claim", claim, "--params", ",".join(f"{k}={v}" for k, v in params.items()))


def test_verify_counting(capsys):
    code, out, _ = run(capsys, *claim_argv("P5", "final_counting", a=2))
    assert code == 0
    assert json.loads(out)["detail"]["F_size"] == 5


def test_verify_rows_and_levels(capsys):
    assert run(capsys, *claim_argv("P5", "constant_on_rows", ell=2))[0] == 0
    assert run(capsys, *claim_argv("P5", "level_structure", n=0, s=3, B=6))[0] == 0
    assert run(capsys, *claim_argv("P5", "min_drop", u=2, v=2, B=10))[0] == 0
    # Precondition violations are usage errors.
    assert run(capsys, *claim_argv("P5", "constant_on_rows", ell=0))[0] == 2
    assert run(capsys, *claim_argv("P5", "level_structure", n=0, s=99, B=6))[0] == 2


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (-1, 5)])
def test_verify_mindrop_rejects_negative_corners(capsys, u, v):
    code, out, err = run(capsys, *claim_argv("P5", "min_drop", u=u, v=v, B=3))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("n, s", [(0, -1), (-1, 0), (-1, 3)])
def test_verify_levels_rejects_negative_levels_and_diagonals(capsys, n, s):
    code, out, err = run(capsys, *claim_argv("P5", "level_structure", n=n, s=s, B=3))
    assert code == 2 and out == "" and f"parameter {'n' if n < 0 else 's'}=-1 is not a natural number" in err


def test_verify_mindrop_rejects_a_negative_bound(capsys):
    # B = -1 leaves an empty grid, which would certify nothing.
    code, out, err = run(capsys, *claim_argv("P5", "min_drop", u=2, v=2, B=-1))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [("levels", "--n", "0", "--s", "4", "--bound", "8"), ("mindrop", "--u", "2", "--v", "2", "--bound", "12"),
     ("rows", "--ell", "2"), ("counting", "--a", "3")],
)
def test_verify_runs_only_the_battery(capsys, argv):
    # Each single desk check has one route, `family check P5`.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and "invalid choice" in err
    assert main(["verify", "--help"]) == 0 and "{all}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "window", "P1", "--spec", "n=99999999999999999999"),
        ("family", "check", "P2", "--claim", "partitions", "--params", "B=99999999999999999999"),
        claim_argv("P5", "level_structure", n=0, s=1, B=99999999999999999999),
    ],
)
def test_integers_too_large_for_a_size_are_usage_errors(capsys, argv):
    # Each is rejected before anything is allocated.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


# Each capped parameter of every claim one past its cap and at 10**20; the
# P5 desk checks' cases one past the cap are in
# test_p5_claims_match_their_verify_actions.  The P5 cases come first, so
# that every case keeps the parametrize id (argv<index>) it was added with.
PAST_CLAIM_CAPS = [
    (claim_argv(family, claim, **{key: size}), f"{key}={size} exceeds its cap {cap}")
    for name, check in report.CLAIMS.items()
    for family, claim in [name.split(".")]
    for key, cap in check.caps.items()
    for size in ((10**20,) if family == "P5" else (cap + 1, 10**20))
]
PAST_DESK_CAPS = [case for case in PAST_CLAIM_CAPS if case[0][2] == "P5"]


@pytest.mark.parametrize(
    "argv, cap",
    [
        *PAST_DESK_CAPS,
        # A coordinate past int64 would run the broadcast forms on Python ints.
        (claim_argv("P3", "atomic_antichain", n=2, m=5 * 10**21, B=3000), f"m={5 * 10**21} is not below 2**60"),
        *(case for case in PAST_CLAIM_CAPS if case not in PAST_DESK_CAPS),
        (("family", "check", "P4", "--claim", "no_domination", "--params", "n=0,m=1,B=100000"), "its cap 60"),
        (("family", "check", "P3", "--claim", "row_bound", "--params", "y=0,B=1000000000"), "its cap 3000"),
    ],
)
def test_sizes_past_an_exhaustive_checks_cap_are_usage_errors(capsys, argv, cap):
    # Each check rejects its size before it enumerates anything.
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and err.startswith("error:") and cap in err


# P5's claims against their checks in the verify module, called directly:
# the battery of `verify all`, then sizes past each cap, negative sizes and
# the checks' own preconditions.
@pytest.mark.parametrize(
    "claim, params",
    [
        *(("level_structure", {"n": n, "s": 4, "B": 8}) for n in (0, 1, 2)),
        ("min_drop", {"u": 2, "v": 2, "B": 12}),
        ("min_drop", {"u": 1, "v": 3, "B": 15}),
        *(("constant_on_rows", {"ell": ell}) for ell in (1, 2, 3)),
        *(("final_counting", {"a": a}) for a in (1, 2, 3)),
        ("level_structure", {"n": 0, "s": 0, "B": 41}),
        ("min_drop", {"u": 0, "v": 0, "B": 10**20}),
        ("constant_on_rows", {"ell": 9}),
        ("final_counting", {"a": 41}),
        ("min_drop", {"u": -1, "v": 0, "B": 3}),
        ("level_structure", {"n": 0, "s": 9, "B": 4}),
        ("constant_on_rows", {"ell": 0}),
        ("final_counting", {"a": 0}),
    ],
)
def test_p5_claims_match_their_verify_actions(capsys, claim, params):
    code, out, err = run(capsys, *claim_argv("P5", claim, **params))
    try:
        rep = report.CLAIMS[f"P5.{claim}"](**params)
    except report.PreconditionViolated as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert code == (0 if rep.ok else 1) and out == json.dumps(rep.to_dict(), indent=2) + "\n"


def test_verify_all_desk(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 11
    assert all(r["status"] != "fail" for r in reports)


def test_python_dash_m_runs_the_same_command_line(capsys):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fishbone", "verify", "all"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == run(capsys, "verify", "all")[1]


def test_a_closed_stdout_is_a_usage_error_without_a_traceback():
    # The pipe closes while the child is still starting up, so its JSON
    # write fails.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fishbone", "family", "window", "P1", "--spec", "n=1500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


# -------------------------------------------------------------------- usage


def test_usage_errors(capsys):
    assert main(["definitely-not-a-subcommand"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["poset"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()



def _masked(out):
    """Stdout with the wall-clock ``elapsed`` of sweep criteria 1 and 5 nulled."""
    data = json.loads(out) if out else None
    for rep in data if isinstance(data, list) else []:
        if rep["claim"] in ("acceptance-1", "acceptance-5"):
            rep["detail"]["elapsed"] = None
    return out and json.dumps(data, indent=2) + "\n"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    argvs = [
        ["ot", "check", "w[w*]+1"],
        ["verify", "all"],
        ["--seed", "3", "sweep"],
        ["poset"],
        ["sweep"],
    ]
    seeds = []
    real = acceptance.run_acceptance

    def spy(seed):
        seeds.append(seed)
        return real(seed=seed)

    monkeypatch.setattr(acceptance, "run_acceptance", spy)
    cli._build_parser()
    shared = [run(capsys, *argv)[:2] for argv in argvs]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, *argv)[:2] for argv in argvs]
    assert [(code, _masked(out)) for code, out in shared] == [(code, _masked(out)) for code, out in fresh]
    assert [code for code, _ in shared] == [0, 0, 0, 2, 0]
    assert len(json.loads(shared[2][1])) == len(json.loads(shared[4][1])) == 12
    assert seeds == [3, 0, 3, 0]


# ------------------------------------------------------------ boundary fuzz
#
# Every command line ends in exit code 0, 1 or 2 with no traceback, and
# every failing report names a witness.  Integers stay at desk scale,
# except the capped size parameters of every claim, which are also drawn
# past their caps, so no drawn command runs uncapped.


def assert_clean_exit(argv):
    code, out, err = quiet_main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    else:
        data = json.loads(out)
        reports = data if isinstance(data, list) else [data]
        for rep in reports:
            if rep.get("status") == "fail":
                assert rep["witness"] is not None, argv
        assert (code == 1) == any(rep.get("status") == "fail" for rep in reports), argv


TERM_TEXT = st.text(alphabet="0123456789w*+[]() ", max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.text(max_size=40) | TERM_TEXT)
def test_ot_check_never_escapes_the_exit_codes(text):
    assert_clean_exit(["ot", "check", text])


SMALL_INTS = st.integers(-1, 6).map(str)
NOT_INTS = st.sampled_from(["", "x", "1.5", "-", "--", "1e3", "0x10", "w", " 2 "])


@st.composite
def options(draw, pairs):
    """The ``(option, value strategy)`` pairs, each given once, in a drawn
    order; then, half the time, one mutation: an option dropped or repeated,
    an unknown option added, a value that is not an integer, or a value
    left out."""
    argv = [[name, draw(values)] for name, values in draw(st.permutations(pairs))]
    mutation = draw(st.sampled_from([None] * 5 + ["drop", "repeat", "unknown", "not an int", "no value"]))
    at = draw(st.integers(0, max(len(argv) - 1, 0)))
    if mutation == "unknown" or (mutation and not argv):
        argv.insert(at, ["--nope", draw(SMALL_INTS)])
    elif mutation == "drop":
        del argv[at]
    elif mutation == "repeat":
        argv.insert(at, [argv[at][0], draw(SMALL_INTS | NOT_INTS)])
    elif mutation == "not an int":
        argv[at][1] = draw(NOT_INTS)
    elif mutation == "no value":
        del argv[at][1]
    return [a for pair in argv for a in pair]


RANGES = st.tuples(st.integers(-1, 4), st.integers(-1, 3)).map(lambda t: f"{t[0]}:{t[0] + t[1]}")


def axis_list(keys, value=SMALL_INTS | RANGES, values=None):
    """``key=value`` items for `--spec` or `--params`: each key once, its
    value drawn from ``values[key]`` or else ``value``, with sometimes an
    unknown key, an empty item or a malformed value mixed in."""
    values = values or {}
    items = st.tuples(*(st.tuples(st.just(k), values.get(k, value)).map("=".join) for k in keys)).map(list)
    noise = st.sampled_from([[]] * 6 + [["q=1"], [""], ["n"], ["B=x"], ["=3"], ["x=1:2:3"], ["y=2:3"]])
    return st.tuples(items, noise).map(lambda t: ",".join(t[0] + t[1]))


def capped(cap):
    """Desk-scale sizes, or sizes past ``cap``."""
    return SMALL_INTS | st.integers(cap + 1, 10**30).map(str)


@st.composite
def claim_params(draw, family, claim):
    """`--params` of a registered claim: its required parameters and,
    sometimes, each optional one; sizes also drawn past their caps."""
    parameters = inspect.signature(report.CLAIMS[f"{family}.{claim}"]).parameters
    keys = [k for k, p in parameters.items() if p.default is p.empty or draw(st.booleans())]
    sizes = {k: capped(cap) for k, cap in report.CLAIMS[f"{family}.{claim}"].caps.items()}
    return draw(axis_list(keys, SMALL_INTS, sizes))


@st.composite
def command_lines(draw):
    argv = draw(st.sampled_from([[]] * 6 + [["--seed", "2"], ["--seed", "-1"], ["--seed", "x"], ["--seed"]]))
    command = draw(st.sampled_from(["verify", "family window", "family check", "ot check", "sweep", "poset"]))
    argv += command.split()
    family = draw(st.sampled_from([*families.FAMILIES, *families.FAMILIES, "P6"]))
    if command == "verify":
        argv += [draw(st.sampled_from(["all", "counting", "nope"])), *draw(options([]))]
    elif command == "family window":
        argv += [family, *draw(options([("--spec", axis_list(families.RECORDS[family].axes if family in families.RECORDS else ("n",)))]))]
    elif command == "family check":
        registry = sorted(name.split(".")[1] for name in report.CLAIMS if name.startswith(f"{family}."))
        claim = draw(st.sampled_from([*registry * 3, "nope"]))
        registered = f"{family}.{claim}" in report.CLAIMS
        params = claim_params(family, claim) if registered else axis_list(("B",), SMALL_INTS)
        argv += [family, *draw(options([("--claim", st.just(claim)), ("--params", params)]))]
    elif command == "ot check":
        argv += draw(st.lists(TERM_TEXT | NOT_INTS, min_size=1, max_size=2))
    elif command == "sweep":
        # sweep takes no options, so each drawn sweep is a usage error and
        # never runs the whole battery.
        argv += ["--budget-seconds", draw(st.sampled_from(["0", "-1", "-2.5", "x", ""]))]
        argv += draw(st.sampled_from([[], [], ["--nope"], ["--budget-seconds"]]))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_command_lines_never_escape_the_exit_codes(argv):
    assert_clean_exit(argv)


# The whole-CLI fuzz above reaches each claim only a few times, so the
# claims, each of whose size parameters is capped, get a run of their own.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(key=st.sampled_from(sorted(report.CLAIMS)), data=st.data())
def test_claim_command_lines_never_escape_the_exit_codes(key, data):
    family, claim = key.split(".")
    params = claim_params(family, claim)
    assert_clean_exit(["family", "check", family, *data.draw(options([("--claim", st.just(claim)), ("--params", params)]))])
