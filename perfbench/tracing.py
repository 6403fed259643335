"""Per-layer tracing of affhur from outside, by wrapping public functions.

A wrapped function counts its calls and its self time: its span minus the
time covered by the spans of wrapped functions it called. Names imported
by name into other modules (``from .linalg import mat_mul``) are rebound in
every affhur module that holds them; methods are patched on their class.
Functions called a million times per round ("hot") are only counted;
the others also keep a span record (id, parent, name, start, end) in
memory, written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer, module, attribute, hot)
TARGETS = (
    ("weyl_fin.mul", "affhur.weyl_fin", "FiniteWeylElement.__mul__", True),
    ("weyl_fin.hash", "affhur.weyl_fin", "FiniteWeylElement.__hash__", True),
    ("linalg.mat_mul", "affhur.linalg", "mat_mul", True),
    ("hurwitz.apply_move", "affhur.hurwitz", "apply_move", True),
    ("hurwitz.apply_braid", "affhur.hurwitz", "apply_braid", False),
    ("hurwitz.lr_normalize", "affhur.hurwitz", "lr_normalize", False),
    ("hurwitz.connect", "affhur.hurwitz", "connect", False),
    ("quasicox.connect_reduced", "affhur.quasicox", "connect_reduced", False),
    ("quasicox.enumerate_factorizations", "affhur.quasicox", "enumerate_factorizations", False),
    ("quasicox.absolute_length_affine", "affhur.quasicox", "absolute_length_affine", False),
    ("quasicox.is_quasi_coxeter_affine", "affhur.quasicox", "is_quasi_coxeter_affine", False),
    ("quasicox.generates_affine", "affhur.quasicox", "generates_affine", False),
    ("quasicox.closure_generates", "affhur.quasicox", "closure_generates", False),
    ("weyl_aff.recognize_reflection", "affhur.weyl_aff", "recognize_reflection", True),
    ("weyl_aff.product_of_reflections", "affhur.weyl_aff", "product_of_reflections", False),
    ("weyl_aff.mul", "affhur.weyl_aff", "AffineWeylElement.__mul__", True),
    ("linalg.solve_integer", "affhur.linalg", "solve_integer", True),
    ("linalg.hnf", "affhur.linalg", "hnf", True),
    ("linalg.solve_rational", "affhur.linalg", "solve_rational", False),
    ("intlattice.reduce_mod", "affhur.intlattice", "reduce_mod", True),
    ("intlattice.span", "affhur.intlattice", "span", False),
)
WORD_SEARCHES = ("hurwitz.lr_normalize", "hurwitz.connect")
ENUMERATOR = "quasicox.enumerate_factorizations"


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name, *_ in TARGETS}
        self.self_s = {name: 0.0 for name, *_ in TARGETS}
        self.letters = 0         # letters of the words the searches returned
        self.enumerated = 0      # factorizations the enumerator returned
        self.muls_in_enum = 0    # weyl_fin.mul calls made inside it
        self.spans: list = []
        self._child = [0.0]      # child time, one entry per open span
        self._open = [None]      # ids of open spanned calls
        self._enum_depth = 0
        self._undo: list = []

    # ------------------------------------------------------------- wrappers

    def _wrap(self, name, fn, hot):
        calls, self_s, child, clock = self.calls, self.self_s, self._child, time.perf_counter
        tracer = self

        if name == "weyl_fin.mul":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if tracer._enum_depth:
                    tracer.muls_in_enum += 1
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_s[name] += dt - child.pop()
                    child[-1] += dt
            return wrapper

        if hot:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_s[name] += dt - child.pop()
                    child[-1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run fn as a recorded span named `name`."""
        sid = len(self.spans) + 1
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(sid)
        self._child.append(0.0)
        enum = name == ENUMERATOR
        self._enum_depth += enum
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._enum_depth -= enum
            dt = t1 - t0
            child = self._child.pop()
            if name in self.self_s:  # op spans have no self time of their own
                self.self_s[name] += dt - child
            self._child[-1] += dt
            self._open.pop()
            self.spans[sid - 1] = (sid, parent, name, t0, t1)
        if name in WORD_SEARCHES and result is not None:
            self.letters += len(result)
        elif enum:
            self.enumerated += len(result)
        return result

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "affhur" or key.startswith("affhur."))]
        for name, modname, attr, hot in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, hot))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # ------------------------------------------------------------- results

    def state(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "letters": self.letters,
                "enumerated": self.enumerated, "muls_in_enum": self.muls_in_enum,
                "spans": self.spans}

    def merge(self, state: dict, tag: str) -> None:
        """Add a child process's counters; its spans keep their own ids under `tag`."""
        for name, v in state["calls"].items():
            self.calls[name] += v
        for name, v in state["self_s"].items():
            self.self_s[name] += v
        self.letters += state["letters"]
        self.enumerated += state["enumerated"]
        self.muls_in_enum += state["muls_in_enum"]
        for sid, parent, name, t0, t1 in state["spans"]:
            self.spans.append((f"{tag}.{sid}", parent and f"{tag}.{parent}", name, t0, t1))

    def metrics(self) -> dict:
        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        moves = self.calls["hurwitz.apply_move"]
        out["hurwitz.moves_per_letter"] = (moves / self.letters if self.letters else 0.0,
                                           "moves/letter")
        out[f"{ENUMERATOR}.yield"] = (self.enumerated / self.muls_in_enum
                                      if self.muls_in_enum else 0.0, "facs/mul")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
