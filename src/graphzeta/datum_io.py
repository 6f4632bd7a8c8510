"""Reading and writing tower-datum files.

The on-disk form is a UTF-8 JSON document:

    {
      "prime": 2,
      "vertices": ["v1", "v2"],
      "edges": [{"from": "v1", "to": "v2", "voltage": 1}, ...],
      "ramification": {"v1": "unramified", "v2": 1}
    }

Each edge entry declares one orientation; the inverse dart with negated
voltage is implied.  Every vertex must appear in the ramification map,
either with an integer exponent k >= 0 or the string "unramified".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import DatumError
from .graphs import SerreGraph
from .linalg import is_probable_prime
from .tower import TowerDatum

__all__ = ["datum_to_dict", "dump_datum", "load_datum", "parse_datum"]


def load_datum(path: str | Path) -> TowerDatum:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatumError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatumError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatumError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit, kept on against slow parsing
        limit = sys.get_int_max_str_digits()
        raise DatumError(f"{path}: invalid JSON: an integer has more than {limit} digits") from exc
    except RecursionError as exc:
        raise DatumError(f"{path}: invalid JSON: arrays or objects nested too deeply") from exc
    return parse_datum(doc, source=str(path))


def parse_datum(doc: dict, source: str = "<datum>") -> TowerDatum:
    def fail(msg: str):
        raise DatumError(f"{source}: {msg}")

    if not isinstance(doc, dict):
        fail("top-level value must be an object")
    for key in ("prime", "vertices", "edges", "ramification"):
        if key not in doc:
            fail(f'missing member "{key}"')
    prime = doc["prime"]
    # bool is a subclass of int; `type(x) is int` keeps JSON true and false out of the integers.
    # The bound comes first: Miller-Rabin on a number of thousands of digits takes seconds.
    if type(prime) is int and prime >= 2**64:
        fail("prime must be below 2^64")
    if type(prime) is not int or not is_probable_prime(prime):
        fail(f"prime must be a prime integer, got {prime!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        fail("vertices must be an array of strings")
    names = set(vertices)
    if len(names) != len(vertices):
        fail("vertex names must be unique")
    edges = doc["edges"]
    if not isinstance(edges, list):
        fail("edges must be an array")
    pairs = []
    voltages = []
    for k, edge in enumerate(edges):
        if not isinstance(edge, dict) or not {"from", "to", "voltage"} <= set(edge):
            fail(f'edge {k} must be an object with "from", "to", "voltage"')
        for endpoint in (edge["from"], edge["to"]):
            if not isinstance(endpoint, str) or endpoint not in names:
                fail(f"edge {k} references undeclared vertex {endpoint!r}")
        if type(edge["voltage"]) is not int:
            fail(f"edge {k} voltage must be an integer")
        pairs.append((edge["from"], edge["to"]))
        voltages.append(edge["voltage"])
    ram_doc = doc["ramification"]
    if not isinstance(ram_doc, dict):
        fail("ramification must be an object")
    for v in vertices:
        if v not in ram_doc:
            fail(f"vertex {v!r} has no ramification entry")
    for v in ram_doc:
        if v not in names:
            fail(f"ramification names undeclared vertex {v!r}")
    ram = []
    for v in vertices:
        entry = ram_doc[v]
        if entry == "unramified":
            ram.append(None)
        elif type(entry) is int and entry >= 0:
            ram.append(entry)
        else:
            fail(f"ramification of {v!r} must be a nonnegative integer or \"unramified\"")
    graph = SerreGraph.from_edges(vertices, pairs)
    dart_voltage = []
    for v in voltages:
        dart_voltage += [v, -v]
    try:
        return TowerDatum(graph, prime, tuple(dart_voltage), tuple(ram))
    except DatumError as exc:
        fail(str(exc))


def datum_to_dict(d: TowerDatum) -> dict:
    """The on-disk document of d; vertex names are written as strings.

    Raises DatumError when two names print alike (say 1 and "1"), since
    `parse_datum` would reject the document.
    """
    vertices = [str(v) for v in d.base.vertices]
    first: dict[str, object] = {}
    for v, name in zip(d.base.vertices, vertices):
        if name in first:
            raise DatumError(f"vertices {first[name]!r} and {v!r} both write as {name!r}")
        first[name] = v
    edges = []
    for e in range(d.base.n_darts):
        if e < d.base.dart_inverse[e]:
            edges.append(
                {
                    "from": vertices[d.base.dart_origin[e]],
                    "to": vertices[d.base.dart_terminus[e]],
                    "voltage": d.voltage[e],
                }
            )
    ram = {
        v: ("unramified" if d.ram[i] is None else d.ram[i])
        for i, v in enumerate(vertices)
    }
    return {"prime": d.p, "vertices": vertices, "edges": edges, "ramification": ram}


def dump_datum(d: TowerDatum, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(datum_to_dict(d), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
