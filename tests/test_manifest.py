"""Malformed manifests fail to parse with `path:line: message`.

Each case marks the line the error must name with a trailing `# <-`
comment, which the parser strips like any other comment.
"""

from fractions import Fraction

import pytest

from engelkit.manifest import ManifestError, parse_manifest

SPACE = """engelkit-manifest 1

[space]
coord x 0 1
coord y 0 1
"""

TASK = SPACE + """
[form a]
comps = 1; 0

[field W]
comps = 1; 0
"""

LIE = """engelkit-manifest 1

[space]
lie A
lie B
param c = 3/2
"""

LATTICE = SPACE + """
[lattice L]
gens = 2
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = {entry}; 0; 1; 0  # <-
row = 0; 0; 0; 1
"""

CASES = {
    "missing header": ("""[space]  # <-
coord x 0 1
""", "first line must be"),
    "unknown section": (SPACE + "\n[widget w]  # <-\n",
                        "unknown section kind 'widget'"),
    "second space": (SPACE + "\n[space]  # <-\ncoord z 0 1\n",
                     "only one [space] section"),
    "bad coord": ("""engelkit-manifest 1

[space]
coord x 0  # <-
""", "usage: coord NAME LO HI [periodic]"),
    "unknown space directive": ("""engelkit-manifest 1

[space]
coord x 0 1
axis y  # <-
""", "unknown space directive 'axis'"),
    "form without comps": (SPACE + "\n[form a]  # <-\ndegree = 1\n",
                           "form 'a' needs comps"),
    "wrong component count": (SPACE + "\n[form a]\ncomps = 1; 0; 0  # <-\n",
                              "degree 1 needs 2 components, got 3"),
    "unknown form key": (SPACE + "\n[form a]  # <-\ncomps = 1; 0\n"
                         "colour = red\n", "unknown keys ['colour'] in form"),
    "three lattice rows": ("""engelkit-manifest 1

[space]
coord x 0 1

[lattice L]  # <-
gens = 2
row = 1; 0; 0; 0
row = 0; 1; 0; 0
row = 0; 0; 1; 0
""", "lattice needs exactly four 'row' lines"),
    "task without op": (TASK + "\n[task t]  # <-\nW = W\n",
                        "task 't' has no op"),
    "duplicate task name": (TASK + "\n[task t]\nop = commutant\n"
                            "\n[task t]  # <-\nop = commutant\n",
                            "duplicate task name 't'"),
    "duplicate object name": (TASK + "\n[field a]  # <-\ncomps = 0; 1\n",
                              "duplicate object name 'a'"),
    "bad samples": (TASK + "\n[task t]\nop = commutant\n"
                    "samples = many  # <-\n",
                    "bad samples override 'many'"),
    "repeated op": (TASK + "\n[task t]\nop = commutant\n"
                    "op = framing  # <-\n", "duplicate key 'op'"),
    "repeated argument": (TASK + "\n[task t]\nop = framing\nW = W\n"
                          "W = W  # <-\n", "duplicate key 'W'"),
    "repeated samples": (TASK + "\n[task t]\nop = commutant\nsamples = 8\n"
                         "samples = 16  # <-\n", "duplicate key 'samples'"),
    "zero samples": (TASK + "\n[task t]\nop = commutant\n"
                     "samples = 0  # <-\n", "samples must be positive"),
    "negative tol": (TASK + "\n[task t]\nop = commutant\n"
                     "tol = -1  # <-\n", "tol must be positive"),
    "keyword coord": (SPACE + "coord lambda 0 1  # <-\n",
                      "name 'lambda' must be an identifier"),
    "param name": (SPACE + "param 2c = 1  # <-\n",
                   "name '2c' must be an identifier"),
    "param shadows a coordinate": (SPACE + "param x = 0  # <-\n",
                                   "name 'x' is already a coordinate"),
    "coordinate after a param": ("""engelkit-manifest 1

[space]
param c = 1
coord c 0 1  # <-
""", "name 'c' is already a coordinate"),
    "coordinate named pi": (SPACE + "coord pi 0 1  # <-\n",
                            "name 'pi' is taken by a constant"),
    "param named pi": (SPACE + "param pi = 2  # <-\n",
                       "name 'pi' is taken by a constant"),
    "coordinate named sin": (SPACE + "coord sin 0 1  # <-\n",
                             "name 'sin' is taken by a constant or a "
                             "function"),
    "param named ln": (LIE + "param ln = 1  # <-\n",
                       "name 'ln' is taken by a constant or a function"),
    "repeated param": (LIE + "param c = 2  # <-\n",
                       "name 'c' is already a coordinate or a parameter"),
    "unknown bracket symbol": (LIE + "bracket A B = 0; y  # <-\n",
                               "bad bracket component: unknown symbol 'y'"),
    "irrational bracket": (LIE + "bracket A B = 0; pi  # <-\n",
                           "bracket components must be rational"),
    "lattice entry sqrtx": (LATTICE.format(entry="sqrtx"),
                            "bad lattice entry: unknown symbol 'sqrtx'"),
    "lattice entry 1/0": (LATTICE.format(entry="1/0"),
                          "bad lattice entry: exact division by zero"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_manifest_names_its_line(case):
    text, message = CASES[case]
    line = next(i for i, row in enumerate(text.splitlines(), 1)
                if row.endswith("# <-"))
    with pytest.raises(ManifestError) as err:
        parse_manifest(text, "case.ek")
    assert str(err.value).startswith(f"case.ek:{line}:")
    assert message in str(err.value)


@pytest.mark.parametrize("text, value", [("-c", Fraction(-3, 2)),
                                         ("2*c", Fraction(3)),
                                         ("c/3 + 0.5", Fraction(1))])
def test_bracket_components_are_rational_expressions(text, value):
    mf = parse_manifest(LIE + f"bracket A B = 0; {text}\n", "case.ek")
    assert mf.space.structure[(0, 1)] == (0, value)
