"""JSON model documents: parsing, validation and emission.

One document format feeds every command.  Degrees are string keys of the
form -?[0-9]+ ("m,n" for a pair), one key per degree in a table, which is
an object; matrices
are row-major nested lists, and every rational is a "num/den" string, so a
document survives serialization without losing exactness.  Errors carry a
JSON-pointer-style location of the first offending field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dgla import CdgaModel, Dgla, FiltrationData, SubDgla, abelian_dgla, sub_dgla_span
from .graded import (Complex, GradedMap, GradedVectorSpace, GVec, Matrix, StructuralError,
                     SubSpaceData)
from .linalg import Q, Vector, sparse

SCHEMA_VERSION = 1

_SECTIONS = ("schema", "spaces", "complexes", "dglas", "end_dglas", "cdgas",
             "filtrations", "subdglas", "artin", "maps", "contractions",
             "elements", "defaults")


class ModelError(ValueError):
    """Malformed model document; ``pointer`` locates the first error."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


def _rational(raw, ptr: str) -> Fraction:
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ModelError(ptr, f"not a rational: {raw!r}")
    if type(raw) is int:            # a JSON boolean is no number
        return Fraction(raw)
    raise ModelError(ptr, f"rationals must be strings like \"3/4\", got {type(raw).__name__}")


def _vector(raw, ptr: str) -> Vector:
    if not isinstance(raw, list):
        raise ModelError(ptr, "expected a list of rationals")
    return [_rational(c, f"{ptr}/{i}") for i, c in enumerate(raw)]


def _matrix(raw, ptr: str, rows: int, cols: int) -> Matrix:
    if not isinstance(raw, list):
        raise ModelError(ptr, "expected a row-major matrix")
    if len(raw) != rows:
        raise ModelError(ptr, f"expected {rows} rows, got {len(raw)}")
    out = []
    for r, row in enumerate(raw):
        v = _vector(row, f"{ptr}/{r}")
        if len(v) != cols:
            raise ModelError(f"{ptr}/{r}", f"expected {cols} columns, got {len(v)}")
        out.append(v)
    return out


def _vectors(raw, ptr: str, deg: int, length: int) -> list[Vector]:
    """The rational vectors of a list, all parsed first, then each checked
    to be a degree-``deg`` vector of ``length`` entries."""
    if not isinstance(raw, list):
        raise ModelError(ptr, "expected a list of vectors")
    vecs = [_vector(v, f"{ptr}/{i}") for i, v in enumerate(raw)]
    for i, v in enumerate(vecs):
        if len(v) != length:
            raise ModelError(f"{ptr}/{i}", f"expected a degree-{deg} vector of length {length}")
    return vecs


def _degree(key: str, ptr: str) -> int:
    """The degree a key names, in the schema's form -?[0-9]+ only."""
    digits = key[1:] if key.startswith("-") else key
    if not (digits.isascii() and digits.isdigit()):
        raise ModelError(ptr, f"degree keys must be integer strings, got {key!r}")
    return int(key)


def _degree_pair(key: str, ptr: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ModelError(ptr, f"expected \"m,n\" degree-pair key, got {key!r}")
    return _degree(parts[0].rstrip(" "), ptr), _degree(parts[1].lstrip(" "), ptr)


def _by_degree(table: dict, ptr: str, parse=_degree):
    """(degree, pointer, value) for each key of a table keyed by degrees
    (``parse``), refusing a table that is not an object and a key that
    names a degree met before."""
    if not isinstance(table, dict):
        raise ModelError(ptr, "expected an object")
    seen: dict = {}
    for key, raw in table.items():
        kptr = f"{ptr}/{key}"
        deg = parse(key, kptr)
        if deg in seen:
            raise ModelError(kptr, f"degree key {key!r} names the same degree as {seen[deg]!r}")
        seen[deg] = key
        yield deg, kptr, raw


def _graded_map(raw, ptr: str, src: GradedVectorSpace, dst: GradedVectorSpace,
                shift: int) -> GradedMap:
    """A map from its dense blocks, one matrix per source degree."""
    return GradedMap.from_blocks(src, dst, shift, {
        deg: _matrix(block, kptr, dst.dim(deg + shift), src.dim(deg))
        for deg, kptr, block in _by_degree(raw, ptr)})


def _tables(raw, ptr: str, sp: GradedVectorSpace, kind: str) -> dict:
    """Bracket or product tables, ``[(m, n)][i][j]`` the vector of basis
    vectors i of degree m and j of degree n, stored for m <= n only."""
    tables = {}
    for (m, n), tptr, rows in _by_degree(raw, ptr, _degree_pair):
        if m > n:
            raise ModelError(tptr, f"{kind} tables are stored for m <= n only")
        if not isinstance(rows, list) or len(rows) != sp.dim(m):
            raise ModelError(tptr, f"expected {sp.dim(m)} rows of tables")
        table = tables[(m, n)] = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != sp.dim(n):
                raise ModelError(f"{tptr}/{i}", f"expected {sp.dim(n)} entries")
            table.append(_vectors(row, f"{tptr}/{i}", m + n, sp.dim(m + n)))
    return tables


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ModelError(f"/{name}", "expected an object")
    return sec


def _ref(sec: dict, name, ptr: str, kind: str):
    if not isinstance(name, str) or name not in sec:
        raise ModelError(ptr, f"dangling reference: no {kind} named {name!r}")
    return name


class ModelDocument:
    """Parsed, cross-checked model with lazily built runtime objects."""

    def __init__(self, raw: dict, path: str = "", _cache: dict | None = None):
        self.raw = raw
        self.path = path
        self._cache = {} if _cache is None else _cache

    # -- raw sections -------------------------------------------------------
    def section(self, name: str) -> dict:
        return _section(self.raw, name)

    def names(self, section: str) -> list[str]:
        return sorted(self.section(section))

    def default(self, key: str) -> str | None:
        return self.section("defaults").get(key)

    # -- runtime builders ---------------------------------------------------
    def _lookup(self, section: str, name, kind: str) -> tuple[dict, str]:
        """The entry ``name`` of a section, which must be an object, and its
        pointer."""
        spec = self.section(section)
        _ref(spec, name, f"/{section}", kind)
        ptr = f"/{section}/{name}"
        if not isinstance(spec[name], dict):
            raise ModelError(ptr, "expected an object")
        return spec[name], ptr

    def _get(self, kind: str, name: str, builder):
        if (kind, name) not in self._cache:
            self._cache[(kind, name)] = builder()
        return self._cache[(kind, name)]

    def space(self, name: str) -> GradedVectorSpace:
        entry, ptr = self._lookup("spaces", name, "space")
        def build():
            components = {}
            for deg, kptr, labels in _by_degree(entry, ptr):
                if (not isinstance(labels, list)
                        or any(not isinstance(l, str) for l in labels)):
                    raise ModelError(kptr, "expected a list of labels")
                components[deg] = tuple(labels)
            return GradedVectorSpace(components)
        return self._get("space", name, build)

    def complex(self, name: str) -> Complex:
        entry, ptr = self._lookup("complexes", name, "complex")
        def build():
            sp = self.space(_ref(self.section("spaces"), entry.get("space"),
                                 f"{ptr}/space", "space"))
            d = _graded_map(entry.get("differential", {}), f"{ptr}/differential", sp, sp, 1)
            try:
                return Complex(sp, d)
            except StructuralError as exc:
                raise ModelError(ptr, str(exc))
        return self._get("complex", name, build)

    def dgla(self, name: str) -> Dgla:
        if name in self.section("end_dglas"):
            return self.end_dgla(name).dgla
        entry, ptr = self._lookup("dglas", name, "dgla")
        def build():
            cx = self.complex(_ref(self.section("complexes"), entry.get("complex"),
                                   f"{ptr}/complex", "complex"))
            if entry.get("abelian"):
                return abelian_dgla(cx)
            brackets = _tables(entry.get("brackets", {}), f"{ptr}/brackets", cx.space, "bracket")
            try:
                return Dgla(cx, brackets)
            except StructuralError as exc:
                raise ModelError(ptr, str(exc))
        return self._get("dgla", name, build)

    def end_dgla(self, name: str) -> EndDgla:
        entry, ptr = self._lookup("end_dglas", name, "end_dgla")
        def build():
            from .endo import end_dgla
            cx = self.complex(_ref(self.section("complexes"), entry.get("complex"),
                                   f"{ptr}/complex", "complex"))
            return end_dgla(cx)
        return self._get("end", name, build)

    def cdga(self, name: str) -> CdgaModel:
        entry, ptr = self._lookup("cdgas", name, "cdga")
        def build():
            cx = self.complex(_ref(self.section("complexes"), entry.get("complex"),
                                   f"{ptr}/complex", "complex"))
            products = _tables(entry.get("products", {}), f"{ptr}/products", cx.space, "product")
            return CdgaModel(cx, products)
        return self._get("cdga", name, build)

    def filtration(self, name: str) -> FiltrationData:
        entry, ptr = self._lookup("filtrations", name, "filtration")
        def build():
            sp = self.space(_ref(self.section("spaces"), entry.get("space"),
                                 f"{ptr}/space", "space"))
            return FiltrationData(sp, {
                p: SubSpaceData(sp, {deg: _vectors(vecs, dptr, deg, sp.dim(deg))
                                     for deg, dptr, vecs in _by_degree(degs, sptr)})
                for p, sptr, degs in _by_degree(entry.get("steps", {}), f"{ptr}/steps")})
        return self._get("filtration", name, build)

    def sub_dgla(self, name: str) -> SubDgla:
        entry, ptr = self._lookup("subdglas", name, "subdgla")
        def build():
            host = entry.get("dgla")
            if not isinstance(host, str) or (host not in self.section("dglas")
                                             and host not in self.section("end_dglas")):
                raise ModelError(f"{ptr}/dgla", f"dangling reference: no dgla named {host!r}")
            g = self.dgla(host)
            span = {deg: _vectors(vecs, kptr, deg, g.space.dim(deg))
                    for deg, kptr, vecs in _by_degree(entry.get("span", {}), f"{ptr}/span")}
            try:
                return sub_dgla_span(g, span)
            except StructuralError as exc:
                raise ModelError(ptr, str(exc))
        return self._get("sub", name, build)

    def artin(self, name: str) -> ArtinAlgebra:
        entry, ptr = self._lookup("artin", name, "artin algebra")
        def build():
            from .artin import truncated_polynomial_algebra
            k, order = entry.get("generators"), entry.get("order")
            if type(k) is not int or type(order) is not int or k < 1 or order < 2:
                raise ModelError(ptr, "expected integer fields generators >= 1, order >= 2")
            return truncated_polynomial_algebra(k, order)
        return self._get("artin", name, build)

    def map(self, name: str) -> GradedMap:
        entry, ptr = self._lookup("maps", name, "map")
        def build():
            src = self.space(_ref(self.section("spaces"), entry.get("source"),
                                  f"{ptr}/source", "space"))
            dst = self.space(_ref(self.section("spaces"), entry.get("target"),
                                  f"{ptr}/target", "space"))
            shift = entry.get("shift", 0)
            if type(shift) is not int:
                raise ModelError(f"{ptr}/shift", "expected an integer")
            return _graded_map(entry.get("blocks", {}), f"{ptr}/blocks", src, dst, shift)
        return self._get("map", name, build)

    def contraction(self, name: str) -> tuple[Dgla, CdgaModel, EndDgla, GradedMap]:
        """A contraction family: (source dgla, cdga, End(cdga), the map i).

        Declared as one degree -1 operator block dict per source basis vector,
        listed in (degree, index) order.
        """
        entry, ptr = self._lookup("contractions", name, "contraction")
        def build():
            from .endo import end_dgla
            source = self.dgla(_ref(self.section("dglas"), entry.get("source"),
                                    f"{ptr}/source", "dgla"))
            omega = self.cdga(_ref(self.section("cdgas"), entry.get("cdga"),
                                   f"{ptr}/cdga", "cdga"))
            end = end_dgla(omega.complex)
            ops = entry.get("operators")
            basis = source.space.basis()
            if not isinstance(ops, list) or len(ops) != len(basis):
                raise ModelError(f"{ptr}/operators",
                                 f"expected {len(basis)} operators (one per source "
                                 "basis vector in degree order)")
            sp = omega.space
            columns: dict[int, list[Vector]] = {}
            for col, ((sdeg, _), op) in enumerate(zip(basis, ops)):
                shift = sdeg - 1
                gm = _graded_map(op, f"{ptr}/operators/{col}", sp, sp, shift)
                try:
                    elem = end.map_to_element(gm)
                except StructuralError as exc:
                    raise ModelError(f"{ptr}/operators/{col}", str(exc))
                columns.setdefault(sdeg, []).append(
                    elem.get(shift, [Q(0)] * end.space.dim(shift)))
            i = GradedMap(source.space, end.space, -1,
                          {sdeg: [sparse(v) for v in cols] for sdeg, cols in columns.items()
                           if end.space.dim(sdeg - 1)})
            return source, omega, end, i
        return self._get("contraction", name, build)

    def element(self, name: str) -> tuple[GradedVectorSpace, GVec]:
        entry, ptr = self._lookup("elements", name, "element")
        def build():
            sp = self.space(_ref(self.section("spaces"), entry.get("space"),
                                 f"{ptr}/space", "space"))
            values: GVec = {}
            for deg, kptr, raw in _by_degree(entry.get("values", {}), f"{ptr}/values"):
                v = _vector(raw, kptr)
                if len(v) != sp.dim(deg):
                    raise ModelError(kptr, f"expected length {sp.dim(deg)}")
                if any(v):
                    values[deg] = v
            return sp, values
        return self._get("element", name, build)


def parse_model(path: str) -> ModelDocument:
    """Load and cross-check a model document; first error wins."""
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ModelError("/", f"no such file: {path}")
    except OSError as exc:
        raise ModelError("/", f"cannot read the model file: {exc}")
    except UnicodeDecodeError as exc:
        raise ModelError("/", f"cannot decode the model file: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelError("/", f"malformed JSON: {exc}")
    return parse_model_dict(raw, path)


def parse_model_dict(raw: dict, path: str = "") -> ModelDocument:
    if not isinstance(raw, dict):
        raise ModelError("/", "top level must be an object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ModelError("/schema", f"expected schema version {SCHEMA_VERSION}")
    for key in raw:
        if key not in _SECTIONS:
            raise ModelError(f"/{key}", "unknown section")
    doc = ModelDocument(raw, path)
    for key, name in doc.section("defaults").items():
        if not isinstance(name, str):
            raise ModelError(f"/defaults/{key}", "expected a string")
    # force every declared object once so dangling references and dimension
    # mismatches surface at parse time, not at command time
    for name in doc.names("spaces"):
        doc.space(name)
    for name in doc.names("complexes"):
        doc.complex(name)
    for name in doc.names("dglas"):
        doc.dgla(name)
    for name in doc.names("end_dglas"):
        doc.end_dgla(name)
    for name in doc.names("cdgas"):
        doc.cdga(name)
    for name in doc.names("filtrations"):
        doc.filtration(name)
    for name in doc.names("subdglas"):
        doc.sub_dgla(name)
    for name in doc.names("artin"):
        doc.artin(name)
    for name in doc.names("maps"):
        doc.map(name)
    for name in doc.names("contractions"):
        doc.contraction(name)
    for name in doc.names("elements"):
        doc.element(name)
    return doc


# ---------------------------------------------------------------------------
# emission helpers (exact rationals as "num/den" strings)

def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def vector_json(v: Vector) -> list:
    return [rational_str(c) for c in v]


def matrix_json(m: Matrix) -> list:
    return [vector_json(row) for row in m]


def gvec_json(x: GVec) -> dict:
    return {str(d): vector_json(v) for d, v in sorted(x.items()) if any(v)}


def emit_model(doc: ModelDocument) -> bytes:
    """Canonical serialization; parse(emit(parse(f))) == parse(f)."""
    return (json.dumps(doc.raw, sort_keys=True, indent=1) + "\n").encode()
