"""Line-oriented manifest files: spaces, named objects, and task lists.

A manifest declares one frame space, any number of named forms, fields,
metrics and lattices over it, and a sequence of tasks with their expected
outcomes.  The grammar is line-oriented with `[section]` headers; see
README.md for the full description.  All but a task's arguments is parsed
eagerly, so that a bad manifest fails before any task runs; an op reads its
task's arguments when the task runs.
"""

import keyword
import math
import re
from fractions import Fraction
from itertools import combinations

from . import expr as ex
from .frames import (DiffForm, FrameError, FrameSpace, VectorField,
                     jacobi_residuals)
from .metric import Metric

HEADER = "engelkit-manifest 1"
SECTION_RE = re.compile(r"^\[([a-z]+)(?:\s+([A-Za-z_][A-Za-z_0-9]*))?\]$")


class ManifestError(Exception):
    pass


class TaskArgs(dict):
    """A task's arguments.  An op asks about each key it takes, with `in`
    or `get`, before it runs, so `unread` lists the keys it does not take."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = set()

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)

    def unread(self):
        return [key for key in self if key not in self.asked]


class Task:
    def __init__(self, name, op, args, expects, overrides, lineno):
        self.name = name
        self.op = op
        self.args = TaskArgs(args)
        self.expects = expects
        self.overrides = overrides
        self.lineno = lineno


class Manifest:
    def __init__(self, path, space, forms, fields, metrics, lattices,
                 tasks):
        self.path = path
        self.space = space
        self.forms = forms
        self.fields = fields
        self.metrics = metrics
        self.lattices = lattices
        self.tasks = tasks


def _strip(line):
    return line.split("#", 1)[0].rstrip()


def _split_list(text):
    return [part.strip() for part in text.split(";")]


def _bound(text):
    # Coordinate bounds only shape the sampling window, so a bound such as
    # "2pi" or "pi/2" is stored as the exact Fraction of its float value.
    if "pi" not in text:
        return Fraction(text)
    num, _, den = text.partition("/")
    num = num.strip()
    if not num.endswith("pi"):
        raise ValueError(text)
    head = num[:-2].rstrip("*").strip()
    if head in ("", "-"):
        head += "1"
    value = Fraction(head) / (Fraction(den) if den else 1)
    return Fraction(float(value) * math.pi)


class _Parser:
    def __init__(self, text, path):
        self.path = path
        self.lines = text.splitlines()
        self.raw = []          # (kind, name, items, lineno)
        self.space_seen = False

    def fail(self, lineno, msg):
        raise ManifestError(f"{self.path}:{lineno}: {msg}")

    def check_name(self, lineno, name, declared):
        """Coordinates and parameters are read inside expressions, so each
        name must be new and must not shadow a constant or a function."""
        if not name.isidentifier() or keyword.iskeyword(name):
            self.fail(lineno, f"name {name!r} must be an identifier and "
                              f"not a Python keyword")
        if name == "pi" or name in ex.FUNCS:
            self.fail(lineno, f"name {name!r} is taken by a constant or a "
                              f"function")
        if name in declared:
            self.fail(lineno, f"name {name!r} is already a coordinate or a "
                              f"parameter")
        declared.add(name)

    def scan(self):
        current = None
        header_seen = False
        for lineno, rawline in enumerate(self.lines, 1):
            line = _strip(rawline).strip()
            if not line:
                continue
            if not header_seen:
                if line != HEADER:
                    self.fail(lineno, f"first line must be '{HEADER}'")
                header_seen = True
                continue
            m = SECTION_RE.match(line)
            if m:
                kind, name = m.group(1), m.group(2)
                if kind == "space":
                    if name is not None:
                        self.fail(lineno, "[space] takes no name")
                    if self.space_seen:
                        self.fail(lineno, "only one [space] section allowed")
                    self.space_seen = True
                    current = ("space", None, [], lineno)
                elif kind in ("form", "field", "metric", "lattice", "task"):
                    if name is None:
                        self.fail(lineno, f"[{kind}] needs a name")
                    current = (kind, name, [], lineno)
                else:
                    self.fail(lineno, f"unknown section kind '{kind}'")
                self.raw.append(current)
                continue
            if current is None:
                self.fail(lineno, "content before any section header")
            current[2].append((lineno, line))
        if not header_seen:
            raise ManifestError(f"{self.path}: empty manifest")

    # -- the space ----------------------------------------------------------

    def build_space(self):
        section = next((s for s in self.raw if s[0] == "space"), None)
        if section is None:
            raise ManifestError(f"{self.path}: no [space] section")
        entries = []
        brackets = {}
        params = {}
        declared = set()
        for lineno, line in section[2]:
            tokens = line.split()
            if tokens[0] == "coord":
                if len(tokens) < 4 or tokens[4:] not in ([], ["periodic"]):
                    self.fail(lineno,
                              "usage: coord NAME LO HI [periodic]")
                try:
                    lo, hi = _bound(tokens[2]), _bound(tokens[3])
                except (ValueError, ZeroDivisionError):
                    self.fail(lineno, "coordinate bounds must be rational "
                                      "or a rational multiple of pi")
                self.check_name(lineno, tokens[1], declared)
                entries.append(("coord", tokens[1], lo, hi))
            elif tokens[0] == "lie":
                if len(tokens) != 2:
                    self.fail(lineno, "usage: lie NAME")
                entries.append(("lie", tokens[1]))
            elif tokens[0] == "param":
                if len(tokens) != 4 or tokens[2] != "=":
                    self.fail(lineno, "usage: param NAME = VALUE")
                self.check_name(lineno, tokens[1], declared)
                try:
                    params[tokens[1]] = Fraction(tokens[3])
                except (ValueError, ZeroDivisionError):
                    self.fail(lineno, "parameter values must be rational")
            elif tokens[0] == "bracket":
                if len(tokens) < 5 or tokens[3] != "=":
                    self.fail(lineno, "usage: bracket A B = c1; c2; ...")
                try:
                    comps = [ex.parse(part, (), params) for part
                             in _split_list(line.split("=", 1)[1])]
                except ex.ExprError as err:
                    self.fail(lineno, f"bad bracket component: {err}")
                if any(c[0] != "rat" for c in comps):
                    self.fail(lineno, "bracket components must be rational")
                brackets[(tokens[1], tokens[2])] = [Fraction(c[1])
                                                    for c in comps]
            else:
                self.fail(lineno, f"unknown space directive '{tokens[0]}'")
        try:
            space = FrameSpace(entries, brackets=brackets, params=params)
        except (FrameError, KeyError) as err:
            self.fail(section[3], f"bad space: {err}")
        bad = jacobi_residuals(space)
        if bad:
            names = ",".join(space.names[i] for i in bad[0][0])
            self.fail(section[3], f"bad space: structure brackets violate "
                                  f"the Jacobi identity on ({names})")
        return space

    # -- named objects -------------------------------------------------------

    def keyvals(self, section, repeatable=()):
        out = {}
        for lineno, line in section[2]:
            if "=" not in line:
                self.fail(lineno, "expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in repeatable:
                out.setdefault(key, []).append((lineno, value))
            elif key in out:
                self.fail(lineno, f"duplicate key '{key}'")
            else:
                out[key] = (lineno, value)
        return out

    def parse_scalar(self, space, lineno, text):
        try:
            return space.scalar(text)
        except Exception as err:
            self.fail(lineno, f"bad expression {text!r}: {err}")

    def scalars(self, space, section, kv, key, count, need):
        """The scalars on the section's `key = s1; s2; ...` line, which must
        list `count` of them (`need` says so in the error); every other key
        left in kv is unknown."""
        kind, name, _, header = section
        if key not in kv:
            self.fail(header, f"{kind} '{name}' needs {key}")
        lineno, raw = kv.pop(key)
        if kv:
            self.fail(header, f"unknown keys {sorted(kv)} in {kind}")
        parts = _split_list(raw)
        if len(parts) != count:
            self.fail(lineno, f"{need}, got {len(parts)}")
        return [self.parse_scalar(space, lineno, p) for p in parts]

    def build_form(self, space, section):
        kv = self.keyvals(section)
        lineno, raw = kv.pop("degree", (section[3], "1"))
        if not raw.isdecimal():
            self.fail(lineno, "degree must be a non-negative integer")
        degree = int(raw)
        keys = list(combinations(range(space.dim), degree))
        comps = self.scalars(space, section, kv, "comps", len(keys),
                             f"degree {degree} needs {len(keys)} components")
        return DiffForm(space, degree, dict(zip(keys, comps)))

    def build_field(self, space, section):
        return VectorField(space, self.scalars(
            space, section, self.keyvals(section), "comps", space.dim,
            f"field needs {space.dim} components"))

    def build_metric(self, space, section):
        weights = self.scalars(space, section, self.keyvals(section), "diag",
                               space.dim, f"diag needs {space.dim} weights")
        matrix = [[weights[i] if i == j else ex.ZERO
                   for j in range(space.dim)] for i in range(space.dim)]
        return Metric(space, matrix)

    def build_lattice(self, section):
        from .qfield import FieldError, Generators, parse_surd
        kv = self.keyvals(section, repeatable=("row",))
        if "gens" not in kv:
            self.fail(section[3], "lattice needs 'gens = p q ...'")
        lineno, raw = kv.pop("gens")
        try:
            gens = Generators(tuple(int(p) for p in raw.split()))
        except (ValueError, FieldError) as err:
            self.fail(lineno, f"bad generators: {err}")
        rows_raw = kv.pop("row", [])
        if kv:
            self.fail(section[3], f"unknown keys {sorted(kv)} in lattice")
        if len(rows_raw) != 4:
            self.fail(section[3], "lattice needs exactly four 'row' lines")
        rows = []
        for lineno, raw in rows_raw:
            parts = _split_list(raw)
            if len(parts) != 4:
                self.fail(lineno, "each row needs four entries")
            try:
                rows.append([parse_surd(p, gens) for p in parts])
            except FieldError as err:
                self.fail(lineno, f"bad lattice entry: {err}")
        return rows

    def build_task(self, section):
        kv = self.keyvals(section, repeatable=("expect",))
        if "op" not in kv:
            self.fail(section[3], f"task '{section[1]}' has no op")
        op = kv.pop("op")[1]
        expects = [" ".join(value.split())
                   for _, value in kv.pop("expect", [])]
        overrides = {}
        for key in [k for k in kv if k in ("samples", "tol")]:
            lineno, value = kv.pop(key)
            try:
                overrides[key] = int(value) if key == "samples" \
                    else float(value)
            except ValueError:
                self.fail(lineno, f"bad {key} override {value!r}")
            if not overrides[key] > 0:
                self.fail(lineno, f"{key} must be positive, got {value!r}")
        args = {key: value for key, (_, value) in kv.items()}
        return Task(section[1], op, args, expects, overrides, section[3])

    def build(self):
        self.scan()
        space = self.build_space()
        forms, fields, metrics, lattices, tasks = {}, {}, {}, {}, []
        names_seen = set()
        for section in self.raw:
            kind, name = section[0], section[1]
            if kind == "space":
                continue
            if kind != "task":
                if name in names_seen:
                    self.fail(section[3], f"duplicate object name '{name}'")
                names_seen.add(name)
            if kind == "form":
                forms[name] = self.build_form(space, section)
            elif kind == "field":
                fields[name] = self.build_field(space, section)
            elif kind == "metric":
                metrics[name] = self.build_metric(space, section)
            elif kind == "lattice":
                lattices[name] = self.build_lattice(section)
            else:
                task = self.build_task(section)
                if any(t.name == task.name for t in tasks):
                    self.fail(section[3],
                              f"duplicate task name '{task.name}'")
                tasks.append(task)
        return Manifest(self.path, space, forms, fields, metrics, lattices,
                        tasks)


def parse_manifest(text, path="<string>"):
    return _Parser(text, path).build()


def load_manifest(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ManifestError(f"cannot read manifest: {err}")
    return parse_manifest(text, path)
