import importlib
import importlib.util
import os
import types

import pytest

from nonscatter.asymptotics import nonscattering_wavenumbers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
PERFBENCH = os.path.join(ROOT, "perfbench")


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


@pytest.mark.parametrize("name", ["certify", "sweep"])
def test_benchmark_round_passes_its_checks(tmp_path, monkeypatch, name):
    # one round of each benchmark workload, imported as perfbench/run.py imports
    # it (perfbench/ on the path, for its references too) and checked as a run
    # checks it: every op passes its check against references.py or fails as
    # it is designed to, so a changed signature that the benchmark calls fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](5, str(tmp_path))
    records = []
    try:
        wl.setup()
        for op in wl.round(0):
            if op.prepare is not None:
                op.prepare()
            try:
                out, exc = op.run(), None
            except Exception as e:
                out, exc = None, e
            records.append(types.SimpleNamespace(op=op, out=out, exc=exc))
    finally:
        wl.cleanup()
    for rec in records:
        if rec.exc is not None:
            assert rec.op.expect_fail is not None and isinstance(rec.exc, rec.op.expect_fail), (rec.op.kind, rec.exc)
        else:
            assert rec.op.check(rec.out) == [], rec.op.kind
    assert wl.check_once(records) == []
    assert any(rec.exc is None for rec in records)
