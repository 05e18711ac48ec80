import importlib.util
import os

from nonscatter.asymptotics import nonscattering_wavenumbers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def _load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, os.path.join(folder, f"{name}.py"))
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


def test_tracer_restores_every_patched_name():
    # the traced benchmark run wraps these names in place; each must exist
    # and come back unchanged when the tracer is removed
    tracing = _load("tracing", os.path.join(ROOT, "perfbench"))
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing._TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
