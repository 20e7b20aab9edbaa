"""Core data model: exact rationals, networks, traffic and demand matrices.

Every quantity in this package is an exact rational (`fractions.Fraction`);
no floating point survives parsing.  Node ids are opaque strings ordered
lexicographically wherever a deterministic order is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import InvalidInstanceError, ParseError

Node = str
Arc = tuple[Node, Node]        # ordered (tail, head)
Edge = tuple[Node, Node]       # unordered, stored with the lex-smaller node first
Commodity = tuple[Node, Node]  # ordered (origin, destination)

# Characters reserved as separators in edge/arc keys and variable names.
# Whitespace is reserved too: it separates terms in the LP text format.
_RESERVED = set("->|,:")


# Number text may spell at most this many digits in the numerator and in the
# denominator it denotes: well below Python's 4300-digit int/str limit.
MAX_DIGITS = 1000
_DIGIT_LIMIT = 10**MAX_DIGITS


def _too_long(text: str) -> ParseError:
    shown = text if len(text) <= 40 else text[:37] + "..."
    return ParseError(f"number {shown!r} has more than {MAX_DIGITS} digits")


def _parse_number_text(text: str) -> Fraction:
    """Read a number string exactly, refusing any over MAX_DIGITS digits.

    Over-long text and a decimal exponent too large for the result to fit
    are refused before `Fraction` builds a power of ten.
    """
    body = text.strip()
    _, e, exponent = body.lower().partition("e")
    if len(body) > 3 * MAX_DIGITS or (e and abs(int(exponent)) > MAX_DIGITS + len(body)):
        raise _too_long(text)
    q = Fraction(body)
    if abs(q.numerator) >= _DIGIT_LIMIT or q.denominator >= _DIGIT_LIMIT:
        raise _too_long(text)
    return q


def _parse_int_text(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise _too_long(text)
    return int(text)


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a string.

    Strings may be integers ("7"), fractions ("3/2") or decimals ("1.5");
    decimals are read exactly, digit by digit, never through a float.  A
    string whose numerator or denominator has over MAX_DIGITS digits is
    refused.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a rational value: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _parse_number_text(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational value: {value!r}") from exc
    if isinstance(value, float):
        raise ParseError(
            f"float {value!r} rejected: pass an exact string such as "
            f"'{value}' through the file parser instead"
        )
    raise ParseError(f"not a rational value: {value!r}")


def render_rational(q: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' with no precision loss."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _check_node_id(node: Node) -> None:
    if not isinstance(node, str) or not node:
        raise InvalidInstanceError(f"node id must be a non-empty string: {node!r}")
    try:
        node.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidInstanceError(f"node id {node!r} cannot be written as UTF-8") from None
    bad = {c for c in node if c in _RESERVED or c.isspace()}
    if bad:
        raise InvalidInstanceError(
            f"node id {node!r} contains reserved separator {sorted(bad)!r}"
        )


def edge_between(i: Node, j: Node) -> Edge:
    """Canonical unordered pair: lex-smaller endpoint first."""
    if i == j:
        raise InvalidInstanceError(f"self-loop edge at node {i!r}")
    return (i, j) if i < j else (j, i)


def read_pair(key: str, separators: str = ">-") -> tuple[str, tuple[Node, Node]]:
    """Read an `i>j` key (an arc or a commodity) or an `i-j` key (an edge)
    into its separator and pair, an edge in canonical order.  The first of
    `separators` in `key` splits it; with none, or an empty end, ParseError."""
    for sep in separators:
        if sep in key:
            i, _, j = key.partition(sep)
            if i and j:
                return sep, (edge_between(i, j) if sep == "-" else (i, j))
            break
    raise ParseError(f"cannot read {key!r} as {' or '.join(f'i{sep}j' for sep in separators)}")


@dataclass(frozen=True)
class Network:
    """Undirected graph with derived arc and commodity enumerations."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise InvalidInstanceError("a network needs at least two nodes")
        seen: set[Node] = set()
        for n in self.nodes:
            _check_node_id(n)
            if n in seen:
                raise InvalidInstanceError(f"duplicate node id {n!r}")
            seen.add(n)
        canon = []
        for e in self.edges:
            if len(e) != 2:
                raise InvalidInstanceError(f"edge must have two endpoints: {e!r}")
            i, j = e
            if i not in seen or j not in seen:
                raise InvalidInstanceError(f"edge {e!r} references unknown node")
            canon.append(edge_between(i, j))
        if len(set(canon)) != len(canon):
            raise InvalidInstanceError("duplicate edge")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Both orientations of every edge, lexicographically sorted."""
        out: list[Arc] = []
        for i, j in self.edges:
            out.append((i, j))
            out.append((j, i))
        return tuple(sorted(out))

    @cached_property
    def commodities(self) -> tuple[Commodity, ...]:
        """All ordered node pairs (origin, destination), sorted."""
        return tuple(
            (o, d) for o in sorted(self.nodes) for d in sorted(self.nodes) if o != d
        )

    @cached_property
    def _incident(self) -> dict[Node, tuple[tuple[Arc, ...], tuple[Arc, ...]]]:
        """Per node, the arcs out of it and the arcs into it, in `arcs` order."""
        return {
            n: (tuple(a for a in self.arcs if a[0] == n), tuple(a for a in self.arcs if a[1] == n))
            for n in self.nodes
        }

    def out_arcs(self, node: Node) -> tuple[Arc, ...]:
        return self._incident.get(node, ((), ()))[0]

    def in_arcs(self, node: Node) -> tuple[Arc, ...]:
        return self._incident.get(node, ((), ()))[1]

    def is_routable(self, traffic: TrafficMatrix) -> bool:
        """True when every commodity with positive traffic has its endpoints
        in one connected component."""
        comp: dict[Node, int] = {}
        for idx, n in enumerate(self.nodes):
            comp.setdefault(n, idx)
        changed = True
        while changed:
            changed = False
            for i, j in self.edges:
                lo = min(comp[i], comp[j])
                if comp[i] != lo or comp[j] != lo:
                    comp[i] = comp[j] = lo
                    changed = True
        return all(comp[o] == comp[d] for (o, d), t in traffic.items() if t > 0)


@dataclass(frozen=True)
class TrafficMatrix:
    """Nonnegative directed traffic demands t[origin, destination].

    Entries are stored zero-free and exactly; missing pairs mean zero.
    Instances are value objects: never mutate `entries` after construction.
    """

    entries: Mapping[Commodity, Fraction]

    def __post_init__(self) -> None:
        clean: dict[Commodity, Fraction] = {}
        for (o, d), raw in self.entries.items():
            t = parse_rational(raw)
            if o == d:
                raise InvalidInstanceError(f"traffic entry on diagonal: {o!r}")
            if t < 0:
                raise InvalidInstanceError(
                    f"negative traffic {render_rational(t)} for {o!r}->{d!r}"
                )
            if t != 0:
                clean[(o, d)] = t
        object.__setattr__(self, "entries", clean)

    def get(self, origin: Node, dest: Node) -> Fraction:
        return self.entries.get((origin, dest), Fraction(0))

    def items(self) -> Iterator[tuple[Commodity, Fraction]]:
        return iter(sorted(self.entries.items()))

    def node_ids(self) -> set[Node]:
        return {n for pair in self.entries for n in pair}

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def is_symmetric(self) -> bool:
        return all(t == self.get(d, o) for (o, d), t in self.entries.items())


@dataclass(frozen=True)
class FacilityMenu:
    """Available capacity module sizes, strictly increasing positive integers.

    Facilities are addressed by 1-based index throughout (index 1 is the
    smallest module).
    """

    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        caps = tuple(self.capacities)
        if not caps:
            raise InvalidInstanceError("facility menu is empty")
        for c in caps:
            if not isinstance(c, int) or isinstance(c, bool) or c <= 0:
                raise InvalidInstanceError(f"facility capacity must be a positive integer: {c!r}")
        if any(a >= b for a, b in zip(caps, caps[1:])):
            raise InvalidInstanceError(f"facility capacities must be strictly increasing: {caps!r}")
        object.__setattr__(self, "capacities", caps)

    def __len__(self) -> int:
        return len(self.capacities)

    def capacity(self, index: int) -> int:
        """Module size of the 1-based facility index."""
        if not 1 <= index <= len(self.capacities):
            raise InvalidInstanceError(f"facility index {index} out of range 1..{len(self.capacities)}")
        return self.capacities[index - 1]

    @property
    def indices(self) -> range:
        return range(1, len(self.capacities) + 1)


def symmetric_counterpart(traffic: TrafficMatrix) -> TrafficMatrix:
    """Symmetric matrix with the same per-pair totals: (t[i,j] + t[j,i]) / 2."""
    out: dict[Commodity, Fraction] = {}
    for (o, d), t in traffic.entries.items():
        avg = (t + traffic.get(d, o)) / 2
        out[(o, d)] = avg
        out[(d, o)] = avg
    return TrafficMatrix(out)


def pairwise_similar(
    a: TrafficMatrix, b: TrafficMatrix, nodes: Iterable[Node] | None = None
) -> bool:
    """True when both matrices have identical per-unordered-pair totals."""
    if nodes is not None:
        known = set(nodes)
        stray = (a.node_ids() | b.node_ids()) - known
        if stray:
            raise InvalidInstanceError(f"traffic references unknown nodes {sorted(stray)!r}")
    pairs = {edge_between(o, d) for o, d in set(a.entries) | set(b.entries)}
    return all(
        a.get(i, j) + a.get(j, i) == b.get(i, j) + b.get(j, i) for i, j in pairs
    )


def scale_traffic(traffic: TrafficMatrix, factor: Fraction | int | str) -> TrafficMatrix:
    """Scale every entry by a nonnegative exact factor."""
    f = parse_rational(factor)
    if f < 0:
        raise InvalidInstanceError(f"scale factor must be nonnegative: {render_rational(f)}")
    return TrafficMatrix({k: t * f for k, t in traffic.entries.items()})


@dataclass(frozen=True)
class Instance:
    """A network design instance: graph, facility menu, existing capacity, traffic.

    Existing capacities are keyed by edge for the undirected and bidirected
    models and by arc for the directed model; missing keys mean zero.
    """

    network: Network
    facilities: FacilityMenu
    traffic: TrafficMatrix
    existing_edge: Mapping[Edge, Fraction] = field(default_factory=dict)
    existing_arc: Mapping[Arc, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        stray = self.traffic.node_ids() - set(self.network.nodes)
        if stray:
            raise InvalidInstanceError(f"traffic references unknown nodes {sorted(stray)!r}")
        for name, what, known in (
            ("existing_edge", "edge", set(self.network.edges)),
            ("existing_arc", "arc", set(self.network.arcs)),
        ):
            clean: dict[tuple[Node, Node], Fraction] = {}
            for key, raw in getattr(self, name).items():
                cap = parse_rational(raw)
                if tuple(key) not in known:
                    raise InvalidInstanceError(f"existing capacity on unknown {what} {key!r}")
                if cap < 0:
                    raise InvalidInstanceError(f"negative existing capacity on {what} {key!r}")
                if cap != 0:
                    clean[tuple(key)] = cap
            object.__setattr__(self, name, clean)

    def with_traffic(self, traffic: TrafficMatrix) -> Instance:
        return Instance(
            network=self.network,
            facilities=self.facilities,
            traffic=traffic,
            existing_edge=dict(self.existing_edge),
            existing_arc=dict(self.existing_arc),
        )

    def edge_capacity(self, edge: Edge) -> Fraction:
        return self.existing_edge.get(edge, Fraction(0))

    def arc_capacity(self, arc: Arc) -> Fraction:
        """Existing capacity of an arc in the directed reading: arc-keyed
        entries win; edge-keyed entries apply to both orientations."""
        if arc in self.existing_arc:
            return self.existing_arc[arc]
        return self.existing_edge.get(edge_between(*arc), Fraction(0))


# -- instance files ----------------------------------------------------------

def parse_json(text: str) -> object:
    """Parse a JSON document, reading non-integer numbers exactly.

    Number literals go through the MAX_DIGITS check.  A syntax error
    (ValueError) and nesting too deep for the decoder (RecursionError)
    become a ParseError.
    """
    try:
        return json.loads(text, parse_float=_parse_number_text, parse_int=_parse_int_text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_traffic(doc: object) -> TrafficMatrix:
    """The traffic of a JSON document: an object whose `traffic` array holds
    rows {"from", "to", "amount"}.  Endpoints are strings, amounts exact and
    nonnegative; the amounts of a repeated pair add up."""
    rows = doc.get("traffic") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise ParseError("expected an object with a 'traffic' array")
    entries: dict[Commodity, Fraction] = {}
    for row in rows:
        if not isinstance(row, dict) or not {"from", "to", "amount"} <= row.keys():
            raise ParseError("traffic rows need 'from', 'to' and 'amount'")
        key = (row["from"], row["to"])
        if not all(isinstance(n, str) for n in key):
            raise ParseError(f"traffic endpoints must be strings: {key!r}")
        amount = parse_rational(row["amount"])
        if amount < 0:  # checked per row, so that a repeat cannot offset it
            raise ParseError(f"negative traffic amount for {key[0]}>{key[1]}")
        entries[key] = entries.get(key, Fraction(0)) + amount
    return TrafficMatrix(entries)


def parse_instance(text: str) -> Instance:
    """Parse an instance from its JSON form.

    Schema: nodes (list of strings), edges (list of two-element lists),
    facilities (list of ints), existing (object keyed "i-j" or "i>j"),
    traffic (read by `parse_traffic`).  All amounts are exact;
    non-integer JSON numbers are read as decimal strings, never floats.
    """
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("nodes", "edges", "facilities", "traffic"):
        if key not in doc:
            raise ParseError(f"instance document missing {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(f"instance {key!r} must be an array")
    for e in doc["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"edge {e!r} must be a two-element array")
    try:
        network = Network(nodes=tuple(doc["nodes"]), edges=tuple(tuple(e) for e in doc["edges"]))
        facilities = FacilityMenu(tuple(doc["facilities"]))
        traffic = parse_traffic(doc)
        existing_edge: dict[Edge, Fraction] = {}
        existing_arc: dict[Arc, Fraction] = {}
        existing = doc.get("existing") or {}
        if not isinstance(existing, dict):
            raise ParseError("'existing' must be an object keyed by capacity")
        for key, raw in existing.items():
            sep, pair = read_pair(key)
            target = existing_arc if sep == ">" else existing_edge
            if pair in target:
                raise ParseError(f"duplicate existing-capacity key {key!r}")
            target[pair] = parse_rational(raw)
        return Instance(network, facilities, traffic, existing_edge, existing_arc)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed instance document: {exc}") from exc


def read_text(path: str | Path) -> str:
    """A file's text, read as UTF-8; bytes that are not UTF-8 raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_text(path: str | Path, text: str) -> None:
    """Write a file's text as UTF-8, the encoding `read_text` reads."""
    Path(path).write_text(text, encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    return parse_instance(read_text(path))


def render_instance(inst: Instance) -> str:
    """Serialize an instance to its canonical JSON form."""
    existing: dict[str, str] = {}
    for (i, j), cap in sorted(inst.existing_edge.items()):
        existing[f"{i}-{j}"] = render_rational(cap)
    for (i, j), cap in sorted(inst.existing_arc.items()):
        existing[f"{i}>{j}"] = render_rational(cap)
    doc = {
        "nodes": list(inst.network.nodes),
        "edges": [list(e) for e in inst.network.edges],
        "facilities": list(inst.facilities.capacities),
        "existing": existing,
        "traffic": [
            {"from": o, "to": d, "amount": render_rational(t)}
            for (o, d), t in inst.traffic.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def save_instance(inst: Instance, path: str | Path) -> None:
    write_text(path, render_instance(inst))
