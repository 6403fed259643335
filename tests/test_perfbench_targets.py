"""The benchmark's tracer wraps affhur functions by name; each name must exist."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for layer, modname, attr, _hot in targets:
        owner = importlib.import_module(modname)
        if "." in attr:  # a method, patched on its class
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{layer}: {modname}.{attr}")
    assert not missing, "tracer targets missing from affhur: " + ", ".join(missing)


def test_tracer_sees_the_searches_of_connect_reduced():
    # connect_reduced normalizes both tuples, then aligns their finite parts
    # once, and replays the word once; the tracer's rows for the two
    # searches and the replay count those calls
    from affhur.hurwitz import connect, lr_normalize
    from affhur.quasicox import (FactorizationQuery, connect_reduced,
                                 enumerate_factorizations)
    from affhur.rootsys import parse_type
    from affhur.weyl_aff import product_of_reflections, simple_system_affine

    rs = parse_type("A2")
    w = product_of_reflections(rs, simple_system_affine(rs))
    t1, t2 = enumerate_factorizations(rs, FactorizationQuery(w, 3, 1))[:2]
    # the second call is answered from the searches' memos; a hit is still
    # a call, so the per-layer counts do not depend on what ran before
    for repeat in (False, True):
        hits = lr_normalize.cache_info().hits, connect.cache_info().hits
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            connect_reduced(rs, w, t1, t2)
        finally:
            tracer.uninstall()
        assert tracer.calls["hurwitz.lr_normalize"] == 2
        assert tracer.calls["hurwitz.connect"] == 1
        assert tracer.calls["hurwitz.apply_braid"] == 1
        if repeat:
            assert (lr_normalize.cache_info().hits - hits[0],
                    connect.cache_info().hits - hits[1]) == (2, 1)
