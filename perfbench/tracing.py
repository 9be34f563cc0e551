"""Span tracing of calihecke from outside the package.

Every public function and method of each module in ``calihecke`` is
replaced, in every namespace that holds it, by a wrapper that records a
span: function name, start, end, parent span and case id.  A span is
recorded when the call comes from another module (a layer boundary, or the
benchmark itself).  The functions behind a named per-layer metric (``NAMED``)
also record calls from their own module, so that their counts include
internal calls such as the inverse inside a division or the recursive
``e_tilde`` of the crystal.  Generators get one span per ``next()``.

Spans are kept in memory and written when the run ends.  The self time of a
span is its duration minus the time covered by its child spans.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array

LAYERS = ("cyclotomics", "multipartitions", "crystal", "calibration",
          "alcoves", "seminormal", "bgg", "unitary_loci", "cli")

# Operators are the public interface of the number type.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__"}

# wrapped function -> metric stem.  Aliases (Cyc.__rmul__ is Cyc.__mul__)
# share the wrapper of the first name, so one stem covers both.
NAMED = {
    "cyclotomics.Cyc.__mul__": "cyclotomics.mul",
    "cyclotomics.Cyc.inv": "cyclotomics.inv",
    "cyclotomics.Cyc.__add__": "cyclotomics.add",
    "cyclotomics.Cyc.__eq__": "cyclotomics.eq",
    "cyclotomics.Cyc.conj": "cyclotomics.conj",
    "seminormal.seminormal_module": "seminormal.build",
    "seminormal.verify_hecke_relations": "seminormal.relations",
    "seminormal.verify_form_invariance": "seminormal.invariance",
    "seminormal.class_form_signs": "seminormal.signs",
    "seminormal.weight_class": "seminormal.weight_class",
    "seminormal.enumerate_calibrated_classes": "seminormal.classes",
    "multipartitions.standard_tableaux": "multipartitions.standard_tableaux",
    "multipartitions.tableau_degree": "multipartitions.tableau_degree",
    "multipartitions.addable_boxes": "multipartitions.boxes",
    "multipartitions.removable_boxes": "multipartitions.boxes",
    "crystal.f_tilde": "crystal.f_tilde",
    "crystal.e_tilde": "crystal.e_tilde",
    "crystal.is_no_stuttering": "crystal.no_stuttering",
    "calibration.is_cali": "calibration.is_cali",
    "calibration.is_flotw": "calibration.is_flotw",
    "alcoves.in_fundamental_alcove": "alcoves.in_fundamental_alcove",
    "alcoves.count_fundamental_paths": "alcoves.count_fundamental_paths",
    "bgg.graded_specht_character": "bgg.graded_character",
    "bgg.block_poset": "bgg.block_poset",
    "bgg.covers": "bgg.covers",
    "bgg.sign_assignment": "bgg.sign_assignment",
    "bgg.euler_check": "bgg.euler",
    "bgg.build_klr_module": "bgg.klr_build",
    "bgg.verify_klr_relations": "bgg.klr_verify",
    "unitary_loci.unitary_locus": "unitary_loci.locus",
    "unitary_loci.positivity_oracle": "unitary_loci.oracle",
    "cli.main": "cli.main",
}

# lru_cache (module.qualname) -> metric stem
CACHES = {
    "multipartitions.count_standard_tableaux": "multipartitions.count_cache",
    "crystal._reachable": "crystal.reachable_cache",
    "crystal._has_stuttering_build": "crystal.stuttering_cache",
    "unitary_loci._cached_class": "unitary_loci.class_cache",
}

# work counters read off results: function -> (counter, value of the result)
HOOKS = {
    "seminormal.seminormal_module": ("seminormal.basis_vectors", lambda mod: mod.dim()),
    "bgg.block_poset": ("bgg.poset_nodes", lambda poset: len(poset.nodes)),
    "bgg.build_klr_module": ("bgg.klr_basis", lambda mod: mod.dim()),
}


def _modules():
    """Every module of the calihecke package, by short name."""
    import calihecke

    return {info.name: importlib.import_module(f"calihecke.{info.name}")
            for info in pkgutil.iter_modules(calihecke.__path__)}


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


def find_caches():
    """Every functools.lru_cache in calihecke, found by scanning module
    attributes for ``cache_info``: {module.qualname: cache object}."""
    out = {}
    for mod in _modules().values():
        for obj in vars(mod).values():
            if callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                out.setdefault(f"{_layer_of(obj.__module__)}.{obj.__qualname__}", obj)
    return out


def clear_caches(caches):
    for cache in caches.values():
        cache.cache_clear()


def _targets():
    """{id(original): (name, original, home module globals)} for every
    public function, public method and operator defined in calihecke."""
    out = {}
    for layer, mod in _modules().items():
        home = vars(mod)
        for attr, obj in home.items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                out.setdefault(id(obj), (f"{layer}.{attr}", obj, home))
            elif inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_") and mname not in OPERATORS:
                        continue
                    raw = member.__func__ if isinstance(member, staticmethod) else member
                    if inspect.isfunction(raw):
                        out.setdefault(id(raw), (f"{layer}.{obj.__name__}.{mname}", raw, home))
    return out


class Tracer:
    """Records spans of calihecke calls while installed."""

    def __init__(self):
        self.names = []
        self.case_id = -1
        self.caches = find_caches()
        self._targets = _targets()
        self._wrappers = {}
        self._patches = []
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.top = -1
        self.yields = {}
        self.counters = {}

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name, fn, home):
        nid = len(self.names)
        self.names.append(name)
        intra = name in NAMED
        hook = HOOKS.get(name)
        getframe = sys._getframe
        clock = time.perf_counter
        tr = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not intra and getframe(1).f_globals is home:
                    return gen
                return tr._iterate(nid, gen)
        else:
            def wrapper(*args, **kwargs):
                if not intra and getframe(1).f_globals is home:
                    return fn(*args, **kwargs)
                i = len(tr.t0)
                tr.name.append(nid)
                tr.parent.append(tr.top)
                tr.case.append(tr.case_id)
                tr.t1.append(0.0)
                tr.top = i
                tr.t0.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tr.t1[i] = clock()
                    tr.top = tr.parent[i]
                if hook is not None:
                    counter, value = hook
                    tr.counters[counter] = tr.counters.get(counter, 0) + value(out)
                return out
        return functools.update_wrapper(wrapper, fn)

    def _iterate(self, nid, gen):
        clock = time.perf_counter
        while True:
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(self.top)
            self.case.append(self.case_id)
            self.t1.append(0.0)
            self.top = i
            self.t0.append(clock())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.t1[i] = clock()
                self.top = self.parent[i]
            p = self.parent[i]
            key = (nid, self.name[p] if p >= 0 else -1)
            self.yields[key] = self.yields.get(key, 0) + 1
            yield item

    def install(self):
        """Replace every binding of every target, in every calihecke module
        and class namespace (``from .x import f`` copies, operator aliases,
        the package's re-exports)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = []
        for modname, mod in list(sys.modules.items()):
            if modname == "calihecke" or modname.startswith("calihecke."):
                owners.append(mod)
                owners.extend(obj for obj in vars(mod).values()
                              if inspect.isclass(obj) and obj.__module__ == modname)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                raw = value.__func__ if isinstance(value, staticmethod) else value
                target = self._targets.get(id(raw))
                if target is None:
                    continue
                name, fn, home = target
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrapper(name, fn, home)
                wrapper = self._wrappers[id(fn)]
                setattr(owner, attr, staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper)
                self._patches.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """Calls, self time and yields per function, counters and cache
        statistics, as plain data that adds up across processes."""
        n = len(self.t0)
        t0, t1, parent, name = self.t0, self.t1, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_s[k] += t1[i] - t0[i] - child[i]
        caches = {}
        for cname, cache in self.caches.items():
            info = cache.cache_info()
            caches[cname] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "calls": {self.names[k]: c for k, c in enumerate(calls) if c},
            "self_s": {self.names[k]: s for k, s in enumerate(self_s) if calls[k]},
            "yields": {f"{self.names[a]}<{self.names[b] if b >= 0 else ''}": y
                       for (a, b), y in self.yields.items()},
            "counters": dict(self.counters),
            "caches": caches,
        }

    def write_spans(self, path, label):
        """Append this tracer's spans to ``path``: one JSON header line, then
        the name, parent, case, start and end columns as raw arrays."""
        header = {"label": label, "names": self.names, "spans": len(self.t0),
                  "columns": ["name:i", "parent:i", "case:i", "start:d", "end:d"]}
        with open(path, "ab") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.case, self.t0, self.t1):
                column.tofile(fh)


def read_spans(path):
    """Yield (header, columns) for each span table in a file written by
    ``Tracer.write_spans``."""
    with open(path, "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                return
            header = json.loads(line)
            columns = []
            for spec in header["columns"]:
                column = array(spec.split(":")[1])
                column.fromfile(fh, header["spans"])
                columns.append(column)
            yield header, columns


def merge(aggregates):
    """Sum per-process aggregates; a cache's size is its largest size in one
    process."""
    out = {"calls": {}, "self_s": {}, "yields": {}, "counters": {}, "caches": {}}
    for agg in aggregates:
        for part in ("calls", "self_s", "yields", "counters"):
            for key, value in agg[part].items():
                out[part][key] = out[part].get(key, 0) + value
        for key, info in agg["caches"].items():
            cur = out["caches"].setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            cur["hits"] += info["hits"]
            cur["misses"] += info["misses"]
            cur["size"] = max(cur["size"], info["size"])
    return out


def layer_metrics(agg):
    """Per-layer metrics from an aggregate (cli.* metrics excepted, which
    the runner measures around the query processes)."""
    calls, self_s = agg["calls"], agg["self_s"]
    out = {}
    for fname, stem in NAMED.items():
        out[f"{stem}.calls"] = out.get(f"{stem}.calls", 0) + calls.get(fname, 0)
        out[f"{stem}.self_s"] = out.get(f"{stem}.self_s", 0.0) + self_s.get(fname, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for f, s in self_s.items() if f.startswith(layer + "."))
        out[f"{layer}.calls"] = sum(c for f, c in calls.items() if f.startswith(layer + "."))
    mul = out["cyclotomics.mul.calls"]
    out["cyclotomics.mul.mean_us"] = out["cyclotomics.mul.self_s"] / mul * 1e6 if mul else 0.0
    yields = agg["yields"]
    out["multipartitions.standard_tableaux.yielded"] = sum(
        y for k, y in yields.items() if k.startswith("multipartitions.standard_tableaux<"))
    for cname, stem in CACHES.items():
        info = agg["caches"].get(cname, {"hits": 0, "misses": 0, "size": 0})
        lookups = info["hits"] + info["misses"]
        out[f"{stem}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        out[f"{stem}.size"] = info["size"]
    counters = agg["counters"]
    out["seminormal.basis_vectors"] = counters.get("seminormal.basis_vectors", 0)
    out["bgg.poset_nodes"] = counters.get("bgg.poset_nodes", 0)
    klr_tableaux = yields.get("multipartitions.standard_tableaux<bgg.build_klr_module", 0)
    out["bgg.klr_kept_ratio"] = (counters.get("bgg.klr_basis", 0) / klr_tableaux
                                 if klr_tableaux else 0.0)
    return out
