import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import nonscatter
from nonscatter import cli, saddle
from nonscatter.cli import main, parse_scenario
from nonscatter.errors import ConfigError
from nonscatter.curves import TrigCurve
from nonscatter.quad import QuadOptions
from nonscatter.waves import HerglotzTrunc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")

ELLIPSE = {"builtin": "ellipse", "params": [2, 1]}
PLANE0 = {"kind": "plane", "alpha": 0.0}


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    argv += list(extra)
    rc = main(argv)
    return rc, (tmp_path / out if out is not None else None)


def read_json(d, name):
    return json.loads((d / name).read_text())


def test_scenario_round_trip():
    cfg = {
        "version": 1,
        "k": 1.5,
        "q": 3.0,
        "domain": {"a1": [0.0, 1.0, 0.25], "b1": [0.0, 0.1], "a2": [], "b2": [0.0, 0.9]},
        "wave": {"kind": "herglotz", "psi": {"-2": [0.1, 0.0], "0": [1.0, -0.5]}},
        "lambda_grid": [1.0, 2.0, 4.0],
        "p": 2.5,
        "g0": [0.25, -1.0],
        "quad": {"tol": 1e-9},
        "contour": True,
        "disk": {"mode": "compare", "n": 2},
        "out": "artifacts",
    }
    s = parse_scenario(cfg)
    # the config survives the JSON text a run reads it from
    assert parse_scenario(json.loads(json.dumps(cfg))) == s
    assert s.domain == TrigCurve(a1=(0.0, 1.0, 0.25), b1=(0.0, 0.1), a2=(), b2=(0.0, 0.9))
    assert s.g0 == complex(0.25, -1.0)
    assert s.wave == HerglotzTrunc(k=1.5, psi=((-2, 0.1), (0, 1 - 0.5j)))
    assert (s.lambda_grid, s.p_power, s.quad, s.contour) == ((1.0, 2.0, 4.0), 2.5, QuadOptions(1e-9), True)
    assert (s.disk.mode, s.disk.n, s.out) == ("compare", 2, "artifacts")

    minimal = parse_scenario({"version": 1, "k": 1.0, "q": 2.0})
    assert (minimal.domain, minimal.wave, minimal.g0, minimal.quad) == (None, None, 0j, QuadOptions())


# configs that once escaped parse_scenario as bare TypeError/AttributeError,
# or passed it with non-finite numbers
ESCAPES = [
    {"wave": {"kind": "plane", "alpha": None}},
    {"wave": {"kind": "plane_combo", "terms": [[1, 2]]}},
    {"wave": {"kind": "plane_combo", "terms": None}},
    {"wave": {"kind": "herglotz", "psi": [[1.0, 0.0]]}},
    {"wave": {"kind": "harmonic", "n": None}},
    {"disk": {"mode": "wronskian", "n": None}},
    {"q": float("nan")},
    {"q": float("inf")},
    {"k": float("inf"), "q": 1e300},
    {"p": float("nan")},
    {"lambda_grid": [1.0, float("inf")]},
]

# values that bool(), str() and float() once coerced silently: "false" ran the
# contour, 5 or ["a"] named an output directory, true read as 1 and "2" as 2.0,
# and a string of digits as an array of numbers
COERCED = [
    {"contour": "false"},
    {"contour": 1},
    {"out": 5},
    {"out": ["a"]},
    {"k": True},
    {"q": "2"},
    {"lambda_grid": "12"},
    {"g0": "12"},
    {"quad": {"tol": "1e-9"}},
    {"p": "2.5"},
    {"wave": {"kind": "harmonic", "n": True}},
    {"disk": {"mode": "wronskian", "n": True}},
    {"domain": {"builtin": "ellipse", "params": ["2", 1]}},
    {"domain": {"builtin": 5}},
    {"domain": {"a1": "01", "a2": [0.0, 0.0, 1.0]}},
    {"domain": {"a1": "", "a2": [0.0, 0.0, 1.0]}},
    {"wave": {"kind": "plane_combo", "terms": [["10", 0.5]]}},
]

# herglotz orders that int() once read loosely: "2_0" as 20 and " 2" as 2
ORDER_KEYS = [
    {"wave": {"kind": "herglotz", "psi": {"2_0": [1.0, 0.0]}}},
    {"wave": {"kind": "herglotz", "psi": {" 2": [1.0, 0.0]}}},
]

# misspelled keys that once took their defaults silently, and the block each
# error names
MISSPELLED = [
    ({"wave": {"kind": "plane", "alpa": 0.7}}, "wave"),
    ({"lambda_gird": [1, 2]}, "config"),
    ({"countour": True}, "config"),
    ({"domain": {"builtin": "ellipse", "params": [2, 1], "b2": [0.0, 1.0]}}, "domain"),
    ({"domain": {"corner": {"theta": 0.5, "a1": -1.0, "a2": -1.0, "a3": -1.0}}}, "domain"),
    ({"disk": {"mode": "roots", "n": 2, "k_max": 10.0, "kmax": 20.0}}, "disk"),
    ({"disk": {"mode": "compare", "alpha": 0.5, "n": 2}}, "disk"),
]

# integer fields that int() once truncated, and the block each error names
FRACTIONS = [
    ({"wave": {"kind": "harmonic", "n": 2.7}}, "wave"),
    ({"disk": {"mode": "compare", "n": 1.5}}, "disk"),
    ({"disk": {"mode": "roots", "n": 2.5, "k_max": 10.0}}, "disk"),
]


def test_scenario_validation_errors():
    base = {"version": 1, "k": 1.0, "q": 2.0}
    bad = [dict(base, **cfg) for cfg in ESCAPES + COERCED + ORDER_KEYS] + [
        {"version": 2, "k": 1.0, "q": 2.0},
        {"version": True, "k": 1.0, "q": 2.0},
        {"version": 1, "q": 2.0},
        {"version": 1, "k": -1.0, "q": 2.0},
        {"version": 1, "k": 1.0, "q": 1.0},
        dict(base, wave={"kind": "spiral"}),
        dict(base, wave={"kind": "herglotz", "psi": {}}),
        dict(base, domain={"corner": {"theta": 0.5}}),
        dict(base, disk={"n": 0}),
        dict(base, g0="elsewhere"),
        dict(base, lambda_grid=["x"]),
        dict(base, quad={"tol": 1e-20}),
        dict(base, quad={"mode": "panel_gauss"}),
    ] + [dict(base, **cfg) for cfg, _ in FRACTIONS + MISSPELLED]
    for cfg in bad:
        with pytest.raises(ConfigError):
            parse_scenario(cfg)
    for cfg in COERCED:
        with pytest.raises(ConfigError, match=f"^bad {next(iter(cfg))}: TypeError"):
            parse_scenario(dict(base, **cfg))
    for cfg, block in FRACTIONS:
        with pytest.raises(ConfigError, match=f"^bad {block}: ValueError"):
            parse_scenario(dict(base, **cfg))
    for cfg in ORDER_KEYS:
        with pytest.raises(ConfigError, match="^bad wave: ValueError: herglotz orders must be plain integers"):
            parse_scenario(dict(base, **cfg))
    for cfg, block in MISSPELLED:
        with pytest.raises(ConfigError, match=f"^bad {block}: (ValueError: )?unknown keys"):
            parse_scenario(dict(base, **cfg))
    with pytest.raises(ConfigError, match="^bad quad: ValueError: unknown keys"):
        parse_scenario(dict(base, quad={"tol": 1e-9, "panels": 9}))
    # integral floats still parse
    s = parse_scenario(dict(base, wave={"kind": "harmonic", "n": 2.0}))
    assert s.wave.n == 2 and isinstance(s.wave.n, int)


def test_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    base = {"version": 1, "k": 1.0, "q": 2.0, "domain": ELLIPSE, "wave": PLANE0}
    malformed = ESCAPES + COERCED + ORDER_KEYS + [cfg for cfg, _ in FRACTIONS + MISSPELLED]
    for i, cfg in enumerate(malformed):
        rc, out = run(tmp_path, "analyze", dict(base, **cfg), out=f"o{i}")
        assert rc == 2, cfg
        assert not out.exists() or not os.listdir(out), cfg
    assert capsys.readouterr().err.count("config error: bad ") == len(malformed)


def test_checked_in_scenarios_round_trip():
    names = sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json"))
    assert len(names) >= 8
    for name in names:
        with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
            cfg = json.load(fh)
        s = parse_scenario(cfg)
        assert s.domain is not None, name
        assert parse_scenario(json.loads(json.dumps(cfg))) == s, name


def _readme_runs() -> list:
    """(command, scenario file) for each scenario command line in README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(r"^ +nonscatter (\w+) +--config scenarios/(\S+\.json)", fh.read(), re.M)


_ARTIFACTS = {
    "analyze": {"report.json"},
    "sweep": {"sweep.csv", "sweep_fit.json"},
    "corner": {"corner.csv", "corner.json"},
    "levelset": {"grid.csv", "level.svg"},
}


def test_readme_runs_every_checked_in_scenario():
    names = sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json"))
    assert sorted({name for _, name in _readme_runs()}) == names


# sha256 of the README quadrature artifacts, which do not move with the roundoff
# floor: every default-tolerance rule they use meets its tolerance first
_PINNED_ARTIFACTS = {
    ("sweep", "ellipse_c1.json"): {
        "sweep.csv": "d8152fb500b7a182c622146a693a193223aeb8155a4ae97628d1d15b72b94151",
        "sweep_fit.json": "f80046b7f4ba9b846e15793b60c57202f7faab16bb1e52e1edf25dbc17e6ffee",
    },
    ("sweep", "deltoid_c2.json"): {
        "sweep.csv": "b73db0de4889095a5adcb6c7d358529bf466cf4be0432ea4114d99a13a0a48c2",
        "sweep_fit.json": "b8cf240e98f3fbb45257b151bca538b361fef5505b97e7a72468e55862c52f40",
    },
    ("sweep", "cardioid_c2.json"): {
        "sweep.csv": "dc44449516b661170b6ff479882003876256db7ead42724758f548856ded81a6",
        "sweep_fit.json": "7fb08a42b20ea9683af21671621e50c01bf22a6aa05d5b97fd49813f6edea25b",
    },
    ("corner", "corner_pi6.json"): {
        "corner.csv": "3fe185a10b55842b0529fbb3c2e6014c38cbe448b633dc23866ad2244c54fe24",
        "corner.json": "778f4ce9a62aa7b3fc783c95035d473868be0f9cfc7f4ac659b590532f1ecd8b",
    },
    ("corner", "corner_pi4.json"): {
        "corner.csv": "d23e5303a741257cf3506c7d380e4297bf8ed8ab9cde0a0614537eb2ad22785c",
        "corner.json": "74d69742755c598cdffd564c9c59ca941ed8ae4f47831cfb30dd26ab59d35338",
    },
    ("corner", "corner_pi3.json"): {
        "corner.csv": "72022909dab8f936ae3523e57369f70d543afa7380eee3864f1af52e2520e7bf",
        "corner.json": "6a8b1a3483649106161bd23f5293d0224f1d4742220fb8a835dd3e7c831fd0e3",
    },
}


@pytest.mark.parametrize("command,name", _readme_runs())
def test_checked_in_scenario_runs(tmp_path, command, name):
    assert main([command, "--config", os.path.join(SCENARIOS, name), "--out", str(tmp_path)]) == 0
    assert set(os.listdir(tmp_path)) == _ARTIFACTS[command]
    for artifact, digest in _PINNED_ARTIFACTS.get((command, name), {}).items():
        assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest, artifact


def test_analyze_ellipse(tmp_path):
    rc, out = run(tmp_path, "analyze", {"version": 1, "k": 1.0, "q": 2.0, "domain": ELLIPSE, "wave": PLANE0})
    assert rc == 0
    rep = read_json(out, "report.json")
    assert rep["verdict"] == "ScattersByC1"
    assert rep["order"] == 1.5
    c1 = complex(*rep["C1"])
    assert abs(c1 - (-1.480675214330743 + 1.6261608820443285j)) < 1e-10


def test_analyze_cardioid(tmp_path):
    rc, out = run(tmp_path, "analyze", {"version": 1, "k": 1.0, "q": 2.0, "domain": {"builtin": "cardioid"}, "wave": PLANE0})
    assert rc == 0
    rep = read_json(out, "report.json")
    assert rep["verdict"] == "ScattersByC2"
    c2 = complex(*rep["C2"])
    assert abs(c2 - 3j * math.sqrt(math.pi / 2)) < 1e-10


def test_analyze_inconclusive_exit_code(tmp_path):
    cfg = {
        "version": 1,
        "k": 5.541265601296353,
        "q": 2.0,
        "domain": {"builtin": "ellipse", "params": [1.4883717401985064, 1.0]},
        "wave": {"kind": "harmonic", "n": 6},
    }
    rc, out = run(tmp_path, "analyze", cfg)
    assert rc == 3
    assert read_json(out, "report.json")["verdict"] == "Inconclusive"


def test_analyze_circle_has_no_saddle(tmp_path):
    cfg = {"version": 1, "k": 1.0, "q": 2.0, "domain": {"builtin": "circle", "params": [1.0]}, "wave": PLANE0}
    rc, out = run(tmp_path, "analyze", cfg)
    assert rc == 4
    assert not (out / "report.json").exists()
    rc2, _ = run(tmp_path, "levelset", cfg, out="out2")
    assert rc2 == 4


def test_levelset_artifacts(tmp_path):
    cfg = {"version": 1, "k": 1.0, "q": 2.0, "contour": True, "domain": ELLIPSE}
    rc, out = run(tmp_path, "levelset", cfg)
    assert rc == 0
    grid = (out / "grid.csv").read_text()
    lines = grid.strip().split("\n")
    assert lines[0] == "r,s,value"
    r, s, v = lines[1].split(",")
    float(r), float(s), float(v)
    assert "np.float64" not in grid
    svg = (out / "level.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and 'stroke="blue"' in svg


def test_analyze_skips_level_lines_and_spare_searches(tmp_path, monkeypatch):
    # analyze reads only the grid values: no zero-level march, and a
    # cell-path search only for a leg whose chord is not clear: none on
    # the ellipse, at most two (into the saddle and out of it) on the cardioid
    bfs, march = saddle._bfs_path, saddle._march
    searches, marches = [], []

    def counting_bfs(*args):
        searches.append(args[1:])
        return bfs(*args)

    def no_march(*args):
        marches.append(args)
        raise AssertionError("analyze marched the zero level")

    monkeypatch.setattr(saddle, "_bfs_path", counting_bfs)
    monkeypatch.setattr(saddle, "_march", no_march)
    for i, (domain, most) in enumerate(((ELLIPSE, 0), ({"builtin": "cardioid"}, 2))):
        searches.clear()
        cfg = {"version": 1, "k": 1.0, "q": 2.0, "domain": domain, "wave": PLANE0}
        rc, out = run(tmp_path, "analyze", cfg, out=f"a{i}")
        assert rc == 0 and (out / "report.json").exists()
        assert len(searches) <= most, domain
    assert marches == []

    # levelset still draws the zero level, marched once
    lines = []

    def counting_march(*args):
        lines.append(march(*args))
        return lines[-1]

    monkeypatch.setattr(saddle, "_march", counting_march)
    cfg = {"version": 1, "k": 1.0, "q": 2.0, "contour": True, "domain": {"builtin": "cardioid"}}
    rc, out = run(tmp_path, "levelset", cfg, out="lv")
    assert rc == 0 and len(lines) == 1 and lines[0]
    svg = (out / "level.svg").read_text()
    assert svg.count('stroke="black"') == len(lines[0])
    assert svg.count('stroke="blue"') == 1


def test_analyze_runs_on_numpy_alone(tmp_path):
    # the runtime promises numpy only: scipy and mpmath are test oracles
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "k": 1.0, "q": 2.0, "domain": {"builtin": "cardioid"}, "wave": PLANE0}))
    code = (
        "import sys\n"
        "from nonscatter.cli import main\n"
        "rc = main(['analyze', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(nonscatter.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "report.json").exists()


def test_sweep_artifacts(tmp_path):
    cfg = {
        "version": 1,
        "k": 1.0,
        "q": 2.0,
        "domain": ELLIPSE,
        "wave": PLANE0,
        "lambda_grid": [4, 8, 12, 16, 20],
        "p": 1.5,
        "g0": "saddle",
        "contour": True,
    }
    rc, out = run(tmp_path, "sweep", cfg)
    assert rc == 0
    csv = (out / "sweep.csv").read_text().strip().split("\n")
    assert csv[0] == "lambda,re_I,im_I,re_resid,im_resid,nodes_used"
    assert len(csv) == 6
    fit = read_json(out, "sweep_fit.json")
    assert fit["n_records"] == 5 and fit["p"] == 1.5
    assert set(fit["fit"]) == {"limit", "order"}


@pytest.mark.parametrize("name, lams", [("deltoid_c2", ["320.0"]), ("ellipse_c1", [])])
def test_sweep_notes_overflowed_I(tmp_path, capsys, name, lams):
    # the deltoid's e^{lam g0} passes the largest double at lam = 320; its resid does not
    assert main(["sweep", "--config", os.path.join(SCENARIOS, f"{name}.json"), "--out", str(tmp_path)]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    if not lams:
        assert notes == []
        return
    (note,) = notes
    assert re.findall(r"\d+\.\d+", note) == lams
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows if not math.isfinite(float(r[1]))] == lams


@pytest.mark.parametrize(
    "name, extra, lams",
    [("cardioid_c2", {"quad": {"tol": 1e-13}}, ["10.0", "20.0", "40.0", "80.0", "160.0", "320.0"]), ("ellipse_c1", {}, [])],
)
def test_sweep_notes_lams_decided_by_the_roundoff_floor(tmp_path, capsys, name, extra, lams):
    # below the integrand's rounding noise the quadrature stops at its roundoff
    # floor, and the note names each lam whose achieved error exceeds tol
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        cfg = dict(json.load(fh), **extra)
    assert run(tmp_path, "sweep", cfg)[0] == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: achieved")]
    if not lams:
        assert notes == []
        return
    (note,) = notes
    assert note.startswith("note: achieved quadrature error exceeds tol = 1e-13 at lam = ")
    assert re.findall(r"\d+\.\d+", note.split(" at lam = ")[1]) == lams


def test_disk_roots_and_wronskian(tmp_path):
    rc, out = run(tmp_path, "disk", {"version": 1, "k": 1.0, "q": 4.0, "disk": {"mode": "roots", "n": 0, "k_max": 20}})
    assert rc == 0
    rows = (out / "disk.csv").read_text().strip().split("\n")
    assert rows[0] == "k,abs_C"
    assert len(rows) == 7
    k1, a1 = rows[1].split(",")
    assert abs(float(k1) - 3.384194839559467) < 1e-9
    assert float(a1) <= 1e-9

    rc2, out2 = run(
        tmp_path,
        "disk",
        {"version": 1, "k": 3.384194839559467, "q": 4.0, "disk": {"mode": "wronskian", "n": 0}},
        out="out2",
    )
    assert rc2 == 0
    n, k, re, im = (out2 / "disk.csv").read_text().strip().split("\n")[1].split(",")
    assert int(n) == 0 and abs(float(re)) < 1e-9 and float(im) == 0.0


def test_disk_compare_modes(tmp_path):
    rc, out = run(
        tmp_path,
        "disk",
        {"version": 1, "k": 1.0, "q": 4.0, "wave": {"kind": "plane", "alpha": 0.3},
         "lambda_grid": [0, 1, 2, 5], "disk": {"mode": "compare", "alpha": 0.3}},
    )
    assert rc == 0
    for row in (out / "disk.csv").read_text().strip().split("\n")[1:]:
        assert float(row.split(",")[5]) < 1e-8

    rc2, out2 = run(
        tmp_path,
        "disk",
        {"version": 1, "k": 3.0, "q": 4.0, "wave": {"kind": "harmonic", "n": 2},
         "lambda_grid": [1, 3], "disk": {"mode": "compare", "n": 2}},
        out="out2",
    )
    assert rc2 == 0
    for row in (out2 / "disk.csv").read_text().strip().split("\n")[1:]:
        assert float(row.split(",")[5]) < 1e-8


def test_corner_command(tmp_path):
    cfg = {
        "version": 1,
        "k": 1.0,
        "q": 2.0,
        "domain": {"corner": {"theta": math.pi / 6, "a1": -0.7, "a2": -0.7}},
        "wave": PLANE0,
        "lambda_grid": [20, 40, 60],
    }
    rc, out = run(tmp_path, "corner", cfg)
    assert rc == 0
    rep = read_json(out, "corner.json")
    assert rep["verdict"] == "ScattersAtCorner"
    assert abs(complex(*rep["C"]) - math.sqrt(3) / 2) < 1e-12
    assert (out / "corner.csv").read_text().startswith("lambda,")


def test_corner_command_inconclusive(tmp_path):
    # the harmonic n = 2 vanishes at the tip, so u(0) = 0 and C = 0
    cfg = {
        "version": 1,
        "k": 1.0,
        "q": 2.0,
        "domain": {"corner": {"theta": math.pi / 6, "a1": -0.7, "a2": -0.7}},
        "wave": {"kind": "harmonic", "n": 2},
    }
    rc, out = run(tmp_path, "corner", cfg)
    assert rc == 3
    rep = read_json(out, "corner.json")
    assert rep["verdict"] == "Inconclusive"
    assert rep["C"] == [0.0, 0.0]


def test_oracle_command(tmp_path):
    cfg = {
        "version": 1,
        "k": 1.0,
        "q": 2.0,
        "domain": {"builtin": "cardioid"},
        "wave": {"kind": "harmonic", "n": 2},
        "lambda_grid": [1, 5],
    }
    rc, out = run(tmp_path, "oracle", cfg)
    assert rc == 0
    rows = (out / "oracle.csv").read_text().strip().split("\n")
    assert rows[0] == "lambda,re_I_scaled,im_I_scaled,re_area,im_area,rel_gap"
    for row in rows[1:]:
        assert float(row.split(",")[5]) < 1e-8


def test_bad_config_exit_codes(tmp_path):
    rc, _ = run(tmp_path, "analyze", {"version": 1, "k": -1.0, "q": 2.0})
    assert rc == 2
    # unreadable file
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", "--config", str(broken)]) == 2
    # wrong domain type for the command
    rc2, _ = run(tmp_path, "corner", {"version": 1, "k": 1.0, "q": 2.0, "domain": ELLIPSE, "wave": PLANE0}, out="o3")
    assert rc2 == 2


def test_bad_levelset_grid_exits_2_without_artifacts(tmp_path, capsys):
    # the level-set raster is fixed: a scenario with a levelset block (here the
    # empty rect and the huge grid that once escaped as OverflowError and a
    # failed allocation) exits 2, names the block and writes nothing
    base = {"version": 1, "k": 1.0, "q": 2.0, "domain": {"builtin": "cardioid"}, "wave": PLANE0}
    flat = {"rect": [[-3.2, 3.2], [0.5, 0.5]]}
    cases = [("levelset", {"nr": 10**6, "ns": 10**6}), ("analyze", {"ns": 4097}), ("analyze", flat), ("levelset", flat)]
    for i, (command, ls) in enumerate(cases):
        rc, out = run(tmp_path, command, dict(base, levelset=ls), out=f"o{i}")
        assert rc == 2 and not out.exists(), (command, ls)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'levelset'" in err, (command, ls)


def test_quad_overrides(tmp_path, capsys):
    # the quad block holds tol only: the Gauss rule size and the command-line
    # overrides are fixed, and setting one exits 2, names it and writes nothing
    base = {"version": 1, "k": 1.0, "q": 2.0, "domain": {"builtin": "cardioid"}, "wave": {"kind": "harmonic", "n": 2}, "lambda_grid": [1, 5]}
    rc, _ = run(tmp_path, "oracle", dict(base, quad={"tol": 1e-9}))
    assert rc == 0
    rc2, out2 = run(tmp_path, "oracle", dict(base, quad={"tol": 1e-20}), out="o2")
    assert rc2 == 2 and not out2.exists()
    capsys.readouterr()
    rc3, out3 = run(tmp_path, "oracle", dict(base, quad={"nodes": 64}), out="o3")
    assert rc3 == 2 and not out3.exists()
    assert "'nodes'" in capsys.readouterr().err
    for flag, value in (("--tol", "1e-9"), ("--nodes", "64")):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "oracle", base, out=flag, extra=[flag, value])
        assert exc.value.code == 2 and not (tmp_path / flag).exists()
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # unnormalized on the real interval, lam x1 reaches 800 at lam = 400: OverflowRisk
    cfg = {
        "version": 1,
        "k": 1.0,
        "q": 2.0,
        "domain": ELLIPSE,
        "wave": PLANE0,
        "lambda_grid": [400],
        "p": 1.5,
    }
    rc, _ = run(tmp_path, "sweep", cfg)
    assert rc == 5
    assert "numerical failure: exponent lam (Re g - Re g0) reaches 800.0" in capsys.readouterr().err


def test_stdout_mode(tmp_path, capsys):
    cfg = {"version": 1, "k": 2.0, "q": 4.0, "disk": {"mode": "wronskian", "n": 1}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["disk", "--config", str(p)]) == 0
    got = capsys.readouterr().out
    assert got.startswith("# disk.csv\n")
    assert got.splitlines()[1] == "n,k,re_C,im_C"


def test_artifacts_deterministic(tmp_path):
    jobs = [
        ("analyze", {"version": 1, "k": 1.0, "q": 2.0, "domain": ELLIPSE, "wave": PLANE0}, ["report.json"]),
        ("levelset", {"version": 1, "k": 1.0, "q": 2.0, "contour": True, "domain": ELLIPSE}, ["grid.csv", "level.svg"]),
        (
            "sweep",
            {"version": 1, "k": 1.0, "q": 2.0, "domain": ELLIPSE, "wave": PLANE0,
             "lambda_grid": [4, 8, 12, 16], "p": 1.5, "g0": "saddle", "contour": True},
            ["sweep.csv", "sweep_fit.json"],
        ),
        (
            "corner",
            {"version": 1, "k": 1.0, "q": 2.0, "domain": {"corner": {"theta": 0.5235987755982988, "a1": -0.7, "a2": -0.7}},
             "wave": PLANE0, "lambda_grid": [20, 40]},
            ["corner.csv", "corner.json"],
        ),
    ]
    for cmd, cfg, names in jobs:
        rc1, out1 = run(tmp_path, cmd, cfg, out=f"{cmd}_a")
        rc2, out2 = run(tmp_path, cmd, cfg, out=f"{cmd}_b")
        assert rc1 == rc2 == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (cmd, name)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify", "--config", "x.json"])


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli._parser()
    assert cli._parser() is parser
    a = parser.parse_args(["sweep", "--config", "x.json", "--out", "o"])
    b = parser.parse_args(["analyze", "--config", "y.json"])
    assert vars(a) == {"command": "sweep", "config": "x.json", "out": "o"}
    assert vars(b) == {"command": "analyze", "config": "y.json", "out": None}
