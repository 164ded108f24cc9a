"""Spans and counters around the public functions of maxminsep, from outside.

Tracer.install replaces each traced function wherever the package holds
it: the defining module and every module that bound it with
`from ... import` (for example cli.separate_box and planar.hull_contains).
Spans (name, start, end, parent, request) go to in-memory arrays and are
written out once at the end; the innermost calls only bump counters.
Self time is a span's duration minus the time its child spans and the
grid enumeration inside it cover.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, function, busy group); a group's busy time counts nested spans of
# the same group once
SPANS = (
    ("cli", "main", "cli.main"),
    ("serialize", "parse_instance", "serialize.parse"),
    ("serialize", "instance_from_dict", "serialize.parse"),
    ("serialize", "box_from_dict", "serialize.parse"),
    ("serialize", "set_from_list", "serialize.parse"),
    ("serialize", "descriptor_from_dict", "serialize.parse"),
    ("serialize", "certificate_to_dict", "serialize.emit"),
    ("serialize", "planar_certificate_to_dict", "serialize.emit"),
    ("serialize", "dumps", "serialize.emit"),
    ("separation", "separate_box", "separation.separate_box"),
    ("separation", "box_profile", "separation.box_profile"),
    ("separation", "lower_partition", "separation.lower_partition"),
    ("separation", "assert_nonseparable", "separation.assert_nonseparable"),
    ("separation", "check_sep_cond", "separation.check_sep_cond"),
    ("semispaces", "set_in_semispace", "semispaces.set_in_semispace"),
    ("convex", "box_hull_witness", "convex.box_hull_witness"),
    ("convex", "box_intersects_hull", "convex.box_intersects_hull"),
    ("convex", "hull_contains", "convex.hull_contains"),
    ("convex", "greatest_below", "convex.greatest_below"),
    ("convex", "hull_intersection_witness", "convex.hull_intersection_witness"),
    ("planar", "separate_two_sets", "planar.separate_two_sets"),
    ("planar", "separate_box_semispace", "planar.separate_box_semispace"),
)

# (module, function or Class.method, counter)
COUNTERS = (
    ("core", "greatest_meet_coefficient", "core.greatest_meet_coefficient.calls"),
    ("core", "join", "core.join.calls"),
    ("core", "Point.__post_init__", "core.point.constructions"),
    ("semispaces", "semispace_contains", "semispaces.member_evals"),
    ("semispaces", "hemispace_contains", "semispaces.member_evals"),
    ("semispaces", "sorted_profile", "semispaces.sorted_profile.calls"),
    ("semispaces", "semispace_family", "semispaces.semispace_family.calls"),
)

OUTCOMES = {"semispace": "semispace", "hemispace": "hemispace", "not-separable": "not_separable"}


PACKAGE = "maxminsep"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.groups: list[str] = []
        self.open: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extra: dict[int, float] = {}  # grid time inside a span
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _module(self, name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def _replace(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or (modname != PACKAGE and not modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _set_method(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _group_id(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
            self.open.append(0)
        return self.groups.index(group)

    def bump(self, counter: str, by: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + by

    def _span_wrapper(self, name: str, group: str, fn, after=None):
        tr, nid, gid = self, self._name_id(name), self._group_id(group)
        names, parents, requests, outers = tr.span_name, tr.span_parent, tr.span_request, tr.span_outer
        starts, ends, stack, opened = tr.span_start, tr.span_end, tr.stack, tr.open

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            requests.append(tr.request)
            outers.append(opened[gid] == 0)
            opened[gid] += 1
            stack.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                opened[gid] -= 1
            if after is not None:
                after(result, parent)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter_wrapper(self, counter: str, fn, after=None):
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", counter)
        return wrapper

    def install(self) -> None:
        cli_main = self._name_id("cli.main")
        sep_two = self._name_id("planar.separate_two_sets")
        hooks = {
            "separation.separate_box": lambda cert, parent: self._count_certificate(cert),
            "serialize.dumps": lambda text, parent: self.bump("serialize.bytes_out", len(text.encode())),
            "convex.hull_contains": lambda ok, parent: self._count_filter(ok, parent, cli_main),
            "convex.box_intersects_hull": lambda hit, parent: (
                self.bump("planar.candidate_boxes_tried")
                if parent >= 0 and self.span_name[parent] == sep_two else None),
        }
        for module, func, group in SPANS:
            mod = self._module(module)
            name = f"{module}.{func}"
            orig = getattr(mod, func)
            self._replace(orig, self._span_wrapper(name, group, orig, hooks.get(name)))
        for module, func, counter in COUNTERS:
            mod = self._module(module)
            if "." in func:
                cls_name, meth = func.split(".")
                owner = getattr(mod, cls_name)
                self._set_method(owner, meth, self._counter_wrapper(counter, owner.__dict__[meth]))
            else:
                orig = getattr(mod, func)
                self._replace(orig, self._counter_wrapper(counter, orig))
        box = self._module("convex").Box
        stack = self.stack
        self._set_method(box, "contains_point", self._counter_wrapper(
            "convex.box.contains_point.calls", box.__dict__["contains_point"],
            lambda ok: self.bump("oracle.useful_points") if ok and stack and self.span_name[stack[-1]] == cli_main else None))
        grid = self._module("oracle").Grid
        self._set_method(grid, "points", self._grid_points(grid.__dict__["points"]))

    def _count_filter(self, ok: bool, parent: int, cli_main: int) -> None:
        # hull filters of the verify sweeps run straight from the cli module
        if ok and parent >= 0 and self.span_name[parent] == cli_main:
            self.bump("oracle.useful_points")

    def _count_certificate(self, cert) -> None:
        self.bump("separation.sweeps", len(cert.trace))
        for entry in cert.trace:
            self.bump(f"separation.sweeps.stage{entry.stage}")
            if entry.witness is None:
                self.bump("separation.separating_sweeps")
        self.bump(f"separation.outcome.{OUTCOMES.get(cert.outcome, cert.outcome)}")

    def _grid_points(self, points):
        tr = self

        def wrapper(grid_self):
            it = points(grid_self)
            count = 0
            busy = 0.0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        p = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        if tr.stack:
                            top = tr.stack[-1]
                            tr.extra[top] = tr.extra.get(top, 0.0) + dt
                    count += 1
                    yield p
            finally:
                tr.bump("oracle.grid_points", count)
                tr.bump("oracle.grid.busy_s", busy)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -------------------------------------------------------------- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (outermost of its group) and self time."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict[str, float]] = {name: {"calls": 0, "busy": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            rec["calls"] += 1
            if self.span_outer[i]:
                rec["busy"] += dur
            rec["self"] += dur - child[i] - self.extra.get(i, 0.0)
        return out

    def group_busy(self, group: str) -> float:
        """Time inside the outermost spans of a group."""
        members = {self.name_ids[f"{m}.{f}"] for m, f, g in SPANS if g == group}
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_outer[i] and self.span_name[i] in members
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_request[i]}\n"
                )
