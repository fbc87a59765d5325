"""Tampered copies of the ``enumerate`` dump, each defined once.

``TAMPERS`` maps a name to an edit of the decoded dump, made in place, and the
exit code of ``prismcat verify`` on the edited file.  ``write`` makes every
edited file, here and in the tests.  ``python tests/_tampers.py CATALOG DIR``
writes ``DIR/<name>.json`` for each row and prints ``<name> <exit code>`` a line.
"""

import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from prismcat import catalog, geometry
from prismcat.moebius import MoebiusMatrix


class Tamper(NamedTuple):
    edit: Callable[[dict], None]
    code: int


def write(text, edit, path):
    """Write ``text`` to ``path`` with ``edit`` made in place on its document; the document."""
    doc = json.loads(text)
    edit(doc)
    path.write_text(json.dumps(doc))
    return doc


def first_index(doc, family=False):
    """The index of the first row that is not a family row, or of the first family row."""
    return next(i for i, row in enumerate(doc["entries"]) if row["family"] is family)


def first_standalone(doc):
    """The first standalone row of the dump, [2 3 2 2 6 4 2 2 2]."""
    return doc["entries"][first_index(doc)]


def first_family(doc):
    """The first family row of the dump, [2 3 2 n 6 2 2 2 2]."""
    return doc["entries"][first_index(doc, True)]


def on_first_standalone(edit):
    """The edit of the dump that makes ``edit`` on its first standalone row."""
    return lambda doc: edit(first_standalone(doc))


def moved_matrices(move):
    """The edit that replaces each stored matrix M of ``first_standalone`` by ``move(M)``."""

    def edit(doc):
        gens = first_standalone(doc)["generators"]
        for name in ("m1", "m2", "m3", "m4"):
            stored = [complex(z["re"], z["im"]) for line in gens[name] for z in line]
            moved = move(MoebiusMatrix(*stored))
            gens[name] = [
                [{"re": z.real, "im": z.imag} for z in line] for line in (moved[:2], moved[2:])
            ]

    return edit


def lowered(pattern, free_min):
    """The edit that stores the family row of ``pattern`` with ``free_min``."""

    def edit(doc):
        next(row for row in doc["entries"] if row["labeling"] == pattern)["free_min"] = free_min

    return edit


def _flipped_red(doc):
    first_standalone(doc)["config"]["red"] = {"normal": [-1.0, 0.0], "offset": -0.0}


def _larger_top(doc):
    first_standalone(doc)["config"]["top"]["radius"] *= 1.001


def _singular(doc):
    first_standalone(doc)["generators"]["m3"] = [[{"re": 0.0, "im": 0.0}] * 2] * 2


def _every_stage(doc):
    _larger_top(doc)
    _singular(doc)


def _twice(doc):
    _larger_top(doc)
    doc["entries"].append(json.loads(json.dumps(first_standalone(doc))))


def _inf(doc):
    row = first_standalone(doc)
    row["config"]["top"]["center"] = [5.0, 5.0]
    config = catalog.entry_from_json(row).config
    row["verification"]["angles"] = list(
        geometry.verify_config(row["labeling"], config).checks[0].residuals
    )


def _family_payload(doc):
    family = first_family(doc)
    family.update((k, first_standalone(doc)[k]) for k in ("config", "generators", "verification"))


def _ulp_theta1(doc):
    gens = first_standalone(doc)["generators"]
    gens["theta1"] = math.nextafter(gens["theta1"], math.inf)


TAMPERS = {
    # the same red line, stored with its normal flipped
    "flipped_red": Tamper(_flipped_red, 1),
    # a family row that carries a standalone row's payload: a malformed file
    "family_payload": Tamper(_family_payload, 2),
    # the top radius moved by 0.1 %, the row stored twice: each copy names its edges once
    "twice": Tamper(_twice, 1),
    # the top circle moved to (5, 5), the infinite angle residuals of a7..a9
    # stored: inf - inf is NaN, so stored and recomputed disagree
    "inf": Tamper(_inf, 1),
    # m3 zeroed: the words that contain M3 cannot be measured, and read inf
    "singular": Tamper(_singular, 1),
    # every relation and trace holds, but M3 is not what the stored faces build
    "conjugated": Tamper(moved_matrices(lambda m: MoebiusMatrix(*(z.conjugate() for z in m))), 1),
    # the same elements of PSL2
    "negated": Tamper(moved_matrices(lambda m: MoebiusMatrix(*(-z for z in m))), 0),
    # [2 3 2 n 6 2 2 2 2] from n = 4: it covers the stored rows at n = 4 and 5
    "lowered": Tamper(lowered([2, 3, 2, None, 6, 2, 2, 2, 2], 4), 1),
    # the generator record reads the ulp, within its bound: verify prints
    # what it prints for the untouched file
    "ulp_theta1": Tamper(_ulp_theta1, 0),
    # one FAIL line for each stage, in record order, then the stored residuals
    "every_stage": Tamper(_every_stage, 1),
}


def main(argv):
    source, directory = map(Path, argv)
    text = source.read_text()
    directory.mkdir(exist_ok=True)
    for name, (edit, code) in TAMPERS.items():
        write(text, edit, directory / f"{name}.json")
        print(name, code)


if __name__ == "__main__":
    main(sys.argv[1:])
