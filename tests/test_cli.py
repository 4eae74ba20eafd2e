import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nlcx
import nlcx.stats as stats
from nlcx.cli import main
from nlcx.complexity import profile
from nlcx.generators import read_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(shutil.which("nlcx") is None,
                    reason="no installed nlcx console script on PATH")
def test_version_runs_as_console_script():
    out = subprocess.run(["nlcx", "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    # an nlcx from another checkout on PATH reports a different version
    assert out.stdout == f"nlcx {nlcx.__version__}\n"


def test_console_script_entry_point_contract():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["nlcx"] == "nlcx.cli:main"
    assert project["version"] == nlcx.__version__
    # what the wrapper generated for that entry point runs, on the nlcx
    # this test imported (pytest's pythonpath setting reaches no subprocess)
    wrapper = "import sys; from nlcx.cli import main; sys.exit(main())"
    env = {**os.environ, "PYTHONPATH": str(Path(nlcx.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                         capture_output=True, text=True, cwd=root, env=env)
    assert out.returncode == 0
    assert out.stdout == "nlcx 0.1.0\n"


def test_gen_inversive_round_trip(tmp_path, capsys):
    p = tmp_path / "s.seq"
    code, _, _ = run(capsys, "gen", "--kind", "inversive", "--q", "5",
                     "-o", str(p))
    assert code == 0
    s = read_sequence(str(p))
    assert s.values == [1, 2, 3]
    assert s.provenance["kind"] == "inversive"


def test_gen_periodic_defaults(tmp_path, capsys):
    p = tmp_path / "s.seq"
    code, _, _ = run(capsys, "gen", "--kind", "periodic", "--q", "7",
                     "--d", "3", "--n", "6", "-o", str(p))
    assert code == 0
    s = read_sequence(str(p))
    assert s.values == [6, 1, 3, 6, 1, 3]
    # without --n the length defaults to three periods
    code, _, _ = run(capsys, "gen", "--kind", "periodic", "--q", "7",
                     "--d", "3", "-o", str(p))
    assert code == 0
    assert len(read_sequence(str(p))) == 9


def test_gen_hermitian(tmp_path, capsys):
    p = tmp_path / "s.seq"
    code, _, _ = run(capsys, "gen", "--kind", "hermitian", "--ell", "2",
                     "-o", str(p))
    assert code == 0
    assert read_sequence(str(p)).values == [1, 0, 0]


def test_gen_random_seeded(tmp_path, capsys):
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    for p in (a, b):
        assert run(capsys, "gen", "--kind", "random", "--q", "3",
                   "--n", "20", "--seed", "42", "-o", str(p))[0] == 0
    assert read_sequence(str(a)).values == read_sequence(str(b)).values


def test_gen_missing_params_exit_2(capsys):
    assert run(capsys, "gen", "--kind", "periodic", "--q", "7")[0] == 2
    assert run(capsys, "gen", "--kind", "inversive", "--q", "6")[0] == 2
    assert run(capsys, "gen", "--kind", "random", "--q", "3")[0] == 2
    assert run(capsys, "gen", "--kind", "hermitian")[0] == 2


def test_analyze_json(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "inversive", "--q", "13", "-o", str(p))
    code, out, _ = run(capsys, "analyze", "--in", str(p), "--kind", "nk",
                       "--k", "1", "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "nk" and doc["k"] == 1 and doc["n"] == 11
    assert doc["value"] >= 5  # (11-1)/(1+1)
    assert "witness" in doc
    assert doc["meta"]["field"].startswith("q=13")


def test_analyze_csv_and_text(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "inversive", "--q", "7", "-o", str(p))
    code, out, _ = run(capsys, "analyze", "--in", str(p), "--kind", "lin",
                       "--format", "csv")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "kind,k,n,value"
    assert rows[1].startswith("lin,,5,")
    code, out, _ = run(capsys, "analyze", "--in", str(p), "--kind", "moc",
                       "--format", "text")
    assert code == 0
    assert "moc complexity" in out


def test_analyze_profile(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "random", "--q", "2", "--n", "12",
        "--seed", "1", "-o", str(p))
    code, out, _ = run(capsys, "analyze", "--in", str(p), "--kind", "nk",
                       "--k", "1", "--profile")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "n,value"
    assert len(rows) == 13
    vals = [int(r.split(",")[1]) for r in rows[1:]]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_analyze_profile_json(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "random", "--q", "3", "--n", "12",
        "--seed", "2", "-o", str(p))
    argv = ("analyze", "--in", str(p), "--kind", "nk", "--k", "1", "--profile")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["schema", "kind", "k", "profile", "meta"]
    assert (doc["schema"], doc["kind"], doc["k"]) == (1, "nk", 1)
    assert doc["profile"] == profile(read_sequence(str(p)), 1, "nk")
    assert doc["meta"]["field"].startswith("q=3")
    assert doc["meta"]["params"]["profile"] is True
    # the CSV rows carry the same profile; a profile has no one-line text
    # form, so --format text gives the CSV
    _, csv_out, _ = run(capsys, *argv)
    rows = [ln for ln in csv_out.splitlines() if not ln.startswith("#")]
    assert rows == ["n,value"] + [f"{n},{v}" for n, v in enumerate(doc["profile"], 1)]
    assert run(capsys, *argv, "--format", "text")[1] == csv_out


def test_json_documents_keep_their_key_order(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "inversive", "--q", "7", "-o", str(p))
    _, out, _ = run(capsys, "analyze", "--in", str(p), "--kind", "nk", "--k", "1",
                    "--witness")
    assert list(json.loads(out)) == ["schema", "kind", "k", "n", "value", "meta",
                                     "witness"]
    _, out, _ = run(capsys, "verify", "--construction", "inversive", "--q", "7",
                    "--format", "json")
    assert list(json.loads(out)) == ["schema", "summary", "meta", "checks"]
    _, out, _ = run(capsys, "profile", "--q", "2", "--k", "1", "--nmax", "8",
                    "--samples", "5", "--seed", "1", "--format", "json")
    assert list(json.loads(out)) == ["schema", "meta", "q", "k", "samples", "seed",
                                     "empirical_slope", "rows"]


def test_analyze_requires_k(tmp_path, capsys):
    p = tmp_path / "s.seq"
    run(capsys, "gen", "--kind", "inversive", "--q", "7", "-o", str(p))
    assert run(capsys, "analyze", "--in", str(p), "--kind", "nk")[0] == 2


def test_analyze_missing_file(capsys):
    assert run(capsys, "analyze", "--in", "/nonexistent.seq",
               "--kind", "lin")[0] == 2


def test_verify_csv_and_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--construction", "inversive",
                         "--q", "5", "--kmax", "2")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "theorem,n,k,bound_num,bound_den,computed,pass"
    assert all(r.endswith(",true") for r in rows[1:])
    summary = json.loads(err)
    assert summary["summary"]["all_passed"] is True


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "hermitian",
                       "--ell", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["summary"]["all_passed"] is True
    assert all(ch["pass"] for ch in doc["checks"])


def test_verify_kinds_filter(capsys):
    code, out, _ = run(capsys, "verify", "--construction", "inversive",
                       "--q", "7", "--kinds", "lin", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {ch["theorem"] for ch in doc["checks"]} == {"inversive-lin"}


def test_verify_bad_construction_exit_2(capsys):
    assert run(capsys, "verify", "--construction", "inversive")[0] == 2


@pytest.mark.parametrize("kmax", ["0", "-1"])
def test_verify_without_degree_caps_exit_2(capsys, kmax):
    code, out, err = run(capsys, "verify", "--construction", "hermitian",
                         "--ell", "2", "--kmax", kmax, "--format", "json")
    assert code == 2 and out == ""
    assert "no degree cap" in err


def test_field_order_refused_before_factoring(capsys, monkeypatch):
    from test_finite_field import forbid_factoring_above_max
    forbid_factoring_above_max(monkeypatch)
    q = str(10 ** 14 + 31)
    for argv in (("gen", "--kind", "inversive", "--q", q),
                 ("gen", "--kind", "inversive", "--q", q, "--primitive", "3"),
                 ("verify", "--construction", "inversive", "--q", q),
                 ("count", "--q", q, "--k", "1", "--n", "3", "--m", "1"),
                 ("gen", "--kind", "hermitian", "--ell", q, "--allow-large")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "exceeds the supported maximum 65536" in err, argv


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--k", "1",
                       "--n", "3", "--m", "1")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows == ["q,k,n,m,count,bound,pass", "2,1,3,1,6,8,true"]


def test_count_json(capsys):
    code, out, err = run(capsys, "count", "--q", "3", "--k", "1", "--n", "5",
                         "--m", "2", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["schema", "meta", "q", "k", "n", "m", "count", "bound", "pass"]
    assert doc["schema"] == 1
    assert doc["meta"]["params"] == {"command": "count", "k": 1, "m": 2, "n": 5, "q": 3}
    assert "field" not in doc["meta"]
    res = stats.exhaustive_count(3, 1, 5, 2)
    assert (doc["q"], doc["k"], doc["n"], doc["m"]) == (3, 1, 5, 2)
    assert (doc["count"], doc["bound"], doc["pass"]) == (res.count, res.bound, True)


def test_count_guard_exit_2(capsys):
    # the guard bounds the nodes of the count's walk, not q^n
    code, out, _ = run(capsys, "count", "--q", "2", "--k", "1",
                       "--n", "64", "--m", "2")
    assert code == 0
    assert out.splitlines()[-1] == "2,1,64,2,26,64,true"
    for n, q in (("1000000000", "2"), ("3", "2053")):
        code, _, err = run(capsys, "count", "--q", q, "--k", "1",
                           "--n", n, "--m", "1" if q == "2053" else "2")
        assert code == 2
        assert "guard exceeded: count walk nodes" in err


def test_count_bound_guard_before_the_walk(capsys, monkeypatch):
    # a bound too long to print is refused from its exponent, before the
    # walk runs and before the bound itself is built
    import nlcx.stats as stats

    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(stats, "_sharded", no_walk)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    for k, n, m, what in (("1", "16", "14", "count bound digits: size 4937"),
                          ("1000", "5", "4", "count bound digits"),
                          ("1", "5", "1000000000", "count bound exponent bits")):
        code, out, err = run(capsys, "count", "--q", "2", "--k", k, "--n", n,
                             "--m", m)
        assert code == 2
        assert out == ""
        assert f"guard exceeded: {what}" in err


def test_gen_length_guard_before_the_generator(capsys, monkeypatch):
    import nlcx.cli as cli

    def no_terms(*args, **kwargs):
        raise AssertionError("the generator ran")

    monkeypatch.setattr(cli, "random_sequence", no_terms)
    monkeypatch.setattr(cli, "inversive_periodic", no_terms)
    for argv, n in ((("--kind", "random", "--n", "1000000000"), 1000000000),
                    (("--kind", "periodic", "--d", "2", "--n", "1000001"), 1000001)):
        code, out, err = run(capsys, "gen", "--q", "5", *argv)
        assert code == 2 and out == ""
        assert f"guard exceeded: gen sequence length: size {n} exceeds guard 1000000" in err


def test_verify_periodic_length_guard_before_the_generator(capsys, monkeypatch):
    import nlcx.bounds as bounds

    def no_terms(*args, **kwargs):
        raise AssertionError("the generator ran")

    monkeypatch.setattr(bounds, "inversive_periodic", no_terms)
    for argv, n in ((("--d", "2", "--n-max", "100000000"), 100000000),
                    (("--periods", "50001"), 100002)):  # the longest period, d = 2
        code, out, err = run(capsys, "verify", "--construction", "periodic", "--q", "5",
                             *argv)
        assert code == 2 and out == ""
        assert f"guard exceeded: periodic sweep length: size {n} exceeds guard 100000" in err


def test_verify_allow_large(capsys):
    # Hermitian ell = 7 lies past the default range until --allow-large
    argv = ("verify", "--construction", "hermitian", "--ell", "7",
            "--n-max", "12", "--kmax", "1")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "allow_large" in err
    code, out, _ = run(capsys, *argv, "--allow-large")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 2 * 12  # header, then nk and lk at n = 1..12
    assert all(r.endswith(",true") for r in rows[1:])
    # without the flag the params stanza is unchanged
    code, out, _ = run(capsys, "verify", "--construction", "hermitian", "--ell", "2")
    assert code == 0
    assert "allow_large" not in out


def test_profile_csv_and_grid(capsys):
    code, out, _ = run(capsys, "profile", "--q", "2", "--k", "1",
                       "--nmax", "16", "--samples", "25", "--seed", "4")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "n,mean,min,max,p05,p50,p95,ref"
    assert [int(r.split(",")[0]) for r in rows[1:]] == [2, 4, 8, 16]


def test_profile_json_custom_grid_threads(capsys):
    code, out, _ = run(capsys, "profile", "--q", "3", "--k", "2",
                       "--nmax", "9", "--grid", "3,6,9", "--samples", "20",
                       "--seed", "8", "--threads", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["rows"]] == [3, 6, 9]
    assert doc["schema"] == 1


def test_hermitian_dumps(capsys):
    code, out, _ = run(capsys, "hermitian", "--ell", "2", "--dump", "points")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(body) == 9  # 2**3 + 1
    assert "inf" in body

    code, out, _ = run(capsys, "hermitian", "--ell", "2", "--dump", "orbits")
    assert code == 0
    assert "Q-orbit" in out

    code, out, _ = run(capsys, "hermitian", "--ell", "2", "--dump", "h",
                       "--t", "1")
    assert code == 0
    assert "valuation_at_infinity = -1" in out
    assert "phi^1 h" in out


def test_stanza_comments_present(capsys):
    _, out, _ = run(capsys, "count", "--q", "2", "--k", "1", "--n", "4",
                    "--m", "1")
    comments = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("nlcx 0.1.0" in c for c in comments)
    assert any("params" in c for c in comments)


def test_env_thread_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NLCX_THREADS", "2")
    code, out, _ = run(capsys, "profile", "--q", "2", "--k", "1",
                       "--nmax", "8", "--samples", "10", "--seed", "1")
    assert code == 0
    monkeypatch.setenv("NLCX_THREADS", "0")
    code, _, err = run(capsys, "profile", "--q", "2", "--k", "1",
                       "--nmax", "8", "--samples", "10", "--seed", "1")
    assert code == 2


def test_env_thread_count_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("NLCX_THREADS", "two")
    code, _, err = run(capsys, "count", "--q", "2", "--k", "1", "--n", "4",
                       "--m", "1")
    assert code == 2
    assert "NLCX_THREADS" in err


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "inversive", "--q", "7"),
    ("analyze", "--in", "seq.txt", "--kind", "lin"),
    ("verify", "--construction", "inversive", "--q", "7"),
    ("hermitian", "--ell", "2"),
])
def test_threads_only_on_count_and_profile(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
