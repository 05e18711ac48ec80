import importlib.util
import os

from nonscatter.asymptotics import nonscattering_wavenumbers

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_disk_tables_smoke(tmp_path, capsys):
    _load("disk_tables").main(["--k-max", "8", "--out", str(tmp_path)])
    roots = (tmp_path / "roots.csv").read_text().splitlines()
    closed = (tmp_path / "closed_vs_quad.csv").read_text().splitlines()
    assert roots[0] == "n,k,abs_C,abs_I_lam1,abs_I_lam5"
    assert closed[0] == "n,lambda,rel_gap" and len(closed) == 10
    rows = [line.split(",") for line in roots[1:]]
    for n in range(4):
        want = nonscattering_wavenumbers(n, 4.0, 8.0)
        assert want and [float(r[1]) for r in rows if r[0] == str(n)] == want, n
    assert "closed-form cross-check written" in capsys.readouterr().out
