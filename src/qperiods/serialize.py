"""JSON import and export for every object the command line touches.

The file formats are small and explicit.  Rationals travel as strings
"p/q" or "p" (never floats), number-field elements as coefficient
arrays with the constant term first, matrices as row lists.  Loaders
raise ParseError for files that are not JSON at all, with file and
line, and ValidationError naming the invariant a structurally intact
file violates.  Dumpers sort keys and emit canonical rational strings
so that repeated runs are byte identical.

dump_json lays plain data out as json.dumps(indent=2, sort_keys=True)
does.  A report's relation bases and kernel vectors are mostly zeros,
so they reach it as RationalVectors and are written from their
nonzeros: each run of zero entries, and each run of all-zero matrix
rows, goes in as one string made once per run length, and only the
nonzero entries are formatted, each distinct value once.
"""

from __future__ import annotations

import json
import os
from bisect import insort
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not, itemgetter
from pathlib import Path

from .exactlin import ZERO, Matrix, NumberField, NumberFieldElem
from .quivalg import (
    BoundQuiverAlgebra,
    FdModule,
    StructureAlgebra,
    build_algebra,
)
from .periods import ComparisonPoint
from .yoga import WeightPartition
from .onemotive import (
    RangeError,
    SaturatedInput,
    b_module,
    check_model_budget,
    saturated_input,
)


class ParseError(ValueError):
    """A file is not JSON.  Carries the path and the offending line."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


class ValidationError(ValueError):
    """A structurally intact file violates a named invariant."""


def load_json(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(path, None, exc.strerror or str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from exc


# lays out floats, and refuses what JSON cannot hold, as json.dumps does
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
_quote = json.encoder.encode_basestring_ascii


class RationalVectors:
    """Rational vectors for dump_json, which writes them as json.dumps
    writes the list of their entries' rational_str texts or, given a row
    width d, the list of their d x d matrices, row-major as Matrix.vec
    reads them.  Vector k is nonzero at columns[k] and otherwise only at
    columns in shared, which defaults to the columns of no vector's, as
    for the rows of a canonical RREF basis with columns its pivots; a
    kernel basis (exactlin.KernelBasis) gives its own."""

    __slots__ = ("vectors", "columns", "shared", "width")

    def __init__(self, vectors, columns, shared=None, width=None):
        self.vectors = vectors
        self.columns = columns
        self.shared = shared
        self.width = width

    def nonzeros(self):
        """For each vector, the ascending positions of its nonzero entries:
        its own column, and the shared columns where it is nonzero, which
        are searched only when one tuple.count over its entries there
        does not find them all ZERO."""
        shared = self.shared
        if shared is None:
            n = len(self.vectors[0]) if self.vectors else 0
            shared = sorted(set(range(n)).difference(self.columns))
        pick = _picker(shared)
        for v, own in zip(self.vectors, self.columns):
            entries = pick(v)
            if entries.count(ZERO) == len(entries):
                yield [own]
            else:
                positions = [shared[i] for i in _nonzero_positions(entries)]
                insort(positions, own)
                yield positions


def _picker(columns):
    """v -> the tuple of v's entries at columns."""
    if len(columns) > 1:
        return itemgetter(*columns)
    # itemgetter of one column gives the entry itself
    return lambda v: tuple(v[c] for c in columns)


# A slice up to this long is searched entry by entry, in C, at about
# 30 ns an entry: halving it would cost more, since each count compares
# every nonzero entry in its slice with ZERO through Fraction.__eq__
_SHORT = 64


def _nonzero_positions(vector) -> list:
    """The ascending positions of vector's nonzero entries, found with no
    Python step per ZERO entry.  In a short slice, the entries that are
    not the ZERO object are picked out in C, and each one's value decides.
    A long slice is passed over by one tuple.count when all its entries
    equal ZERO, and halved otherwise."""
    out = []
    todo = [(0, len(vector))]
    while todo:
        lo, hi = todo.pop()
        part = vector[lo:hi]
        if hi - lo <= _SHORT:
            out.extend(j for j in compress(range(lo, hi),
                                           map(is_not, part, repeat(ZERO)))
                       if vector[j])
        elif part.count(ZERO) != hi - lo:
            mid = (lo + hi) // 2
            todo.append((mid, hi))
            todo.append((lo, mid))
    return out


def dump_json(data) -> str:
    """data laid out as json.dumps(data, indent=2, sort_keys=True) lays it
    out, plus a final newline; RationalVectors inside it are laid out as
    the lists they stand for."""
    parts = []
    _write(data, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value, newline: str, parts: list) -> None:
    """Append the JSON text of value to parts; newline is the line break
    and indent of value's own level.  A flat list of strings, such as a
    number-field element's coefficients, is written in one join."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        try:
            # _quote refuses anything but a string
            parts.append("[" + inner + ("," + inner).join(map(_quote, value))
                         + newline + "]")
        except TypeError:
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _write(item, inner, parts)
                sep = "," + inner
            parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _quote(_key_str(key)) + ": ")
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, RationalVectors):
        _write_vectors(value, newline, parts)
    else:
        parts.append(_scalar_text(value))


def _scalar_text(value) -> str:
    """The JSON text of a value that is not a string or a container, as
    json.dumps writes it: ints (bools apart) by int.__repr__, with no
    encoder call for the ints, bools and None that reports hold."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    return _ENCODER.encode(value)


def _write_vectors(value: RationalVectors, newline: str, parts: list) -> None:
    """Append the JSON text of value's vectors, at newline, to parts.

    Each vector goes in as its nonzero entries' texts, or as its nonzero
    rows, each made in one join from its entries, and between them one
    string per run of zero entries or of all-zero rows."""
    if not value.vectors:
        parts.append("[]")
        return
    text = _Memo(lambda x: _quote(rational_str(x)))
    inner = newline + "  "
    d = value.width
    if d is not None:
        rows = inner + "  "
        put_row = _list_writer('"0"', rows + "  ", rows)
        zero_row = []
        put_row(zero_row, d, ())
        put_matrix = _list_writer("".join(zero_row), rows, inner)
    else:
        put_vector = _list_writer('"0"', inner + "  ", inner)
    sep = "[" + inner
    for v, positions in zip(value.vectors, value.nonzeros()):
        parts.append(sep)
        sep = "," + inner
        if d is None:
            put_vector(parts, len(v), [(j, text[v[j]]) for j in positions])
            continue
        cells = {}
        for j in positions:
            r, c = divmod(j, d)
            cells.setdefault(r, []).append((c, text[v[j]]))
        nonzero_rows = []
        for r, row in cells.items():
            out = []
            put_row(out, d, row)
            nonzero_rows.append((r, "".join(out)))
        put_matrix(parts, d, nonzero_rows)
    parts.append(newline + "]")


def _list_writer(zero: str, inner: str, newline: str):
    """put(out, n, items): append to out the JSON text, at newline, of a
    list of n items at inner that are zero, whose text is zero, but for
    items, the ascending (index, text) pairs of the others.  Each run of
    zero items goes in as one string, made once per run length."""
    head, sep, tail = "[" + inner, "," + inner, newline + "]"
    runs = _Memo(lambda k: sep.join([zero] * k))

    def put(out: list, n: int, items) -> None:
        if not n:
            out.append("[]")
            return
        out.append(head)
        at = 0
        for i, item in items:
            if i > at:
                out.append(runs[i - at])
                out.append(sep)
            out.append(item)
            at = i + 1
            if at < n:
                out.append(sep)
        if at < n:
            out.append(runs[n - at])
        out.append(tail)

    return put


class _Memo(dict):
    """make(key) at each key, made when first asked for."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _key_str(key) -> str:
    """A dict key as JSON names it: bools, ints, floats and None by their
    JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


# ---------------------------------------------------------------------------
# scalars, vectors, matrices


def parse_rational(value, what: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be a rational string, not a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"{what} is not a rational: {value!r}") from exc
    raise ValidationError(
        f"{what} must be a rational encoded as a string like '3/4', "
        f"got {type(value).__name__}")


def rational_str(value) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    # the literal is one shared string: module maps and number-field
    # coefficient lists are mostly zeros
    return str(value) if value else "0"


def _expect(data, kind, what: str):
    if not isinstance(data, kind):
        raise ValidationError(
            f"{what} must be a JSON {kind.__name__}, "
            f"got {type(data).__name__}")
    return data


def _field(data: dict, key: str, what: str):
    if key not in data:
        raise ValidationError(f"{what} is missing the {key!r} key")
    return data[key]


def matrix_from_data(rows, nrows: int, ncols: int, what: str) -> Matrix:
    return _parse_matrix(rows, nrows, ncols, what, {})


def _parse_matrix(rows, nrows: int, ncols: int, what: str,
                  seen: dict) -> Matrix:
    """matrix_from_data, with seen mapping each entry string parsed so
    far to its Fraction: a module's maps hold mostly a few strings such
    as "0" and "1", so each distinct one is parsed once per file."""
    _expect(rows, list, what)
    if len(rows) != nrows:
        raise ValidationError(
            f"{what} must have {nrows} rows, got {len(rows)}")
    parsed = []
    for i, row in enumerate(rows):
        _expect(row, list, f"{what} row {i}")
        if len(row) != ncols:
            raise ValidationError(
                f"{what} row {i} must have {ncols} entries, got {len(row)}")
        entries = []
        for j, x in enumerate(row):
            q = seen.get(x) if type(x) is str else None
            if q is None:
                q = parse_rational(x, f"{what}[{i}][{j}]")
                if type(x) is str:
                    seen[x] = q
            entries.append(q)
        parsed.append(tuple(entries))
    # every entry is a Fraction and every row ncols long
    return Matrix._wrap(tuple(parsed), ncols)


def matrix_to_data(mat: Matrix) -> list:
    return [[rational_str(x) for x in row] for row in mat.rows]


def vector_from_data(entries, length: int, what: str) -> tuple:
    _expect(entries, list, what)
    if len(entries) != length:
        raise ValidationError(
            f"{what} must have {length} entries, got {len(entries)}")
    return tuple(parse_rational(x, f"{what}[{i}]")
                 for i, x in enumerate(entries))


def vector_to_data(vec) -> list:
    return [rational_str(x) for x in vec]


# ---------------------------------------------------------------------------
# bound quiver algebras


def algebra_from_data(data) -> BoundQuiverAlgebra:
    _expect(data, dict, "algebra")
    vertices = _expect(_field(data, "vertices", "algebra"), list, "vertices")
    arrows = []
    for i, arrow in enumerate(_expect(
            _field(data, "arrows", "algebra"), list, "arrows")):
        what = f"arrow {i}"
        _expect(arrow, dict, what)
        arrows.append((str(_field(arrow, "name", what)),
                       str(_field(arrow, "from", what)),
                       str(_field(arrow, "to", what))))
    relations = []
    for i, rel in enumerate(_expect(data.get("relations", []),
                                    list, "relations")):
        _expect(rel, list, f"relation {i}")
        terms = []
        for j, term in enumerate(rel):
            what = f"relation {i} term {j}"
            _expect(term, dict, what)
            path = _expect(_field(term, "path", what), list, "path")
            coeff = parse_rational(term.get("coeff", 1), what + " coeff")
            terms.append((coeff, tuple(map(str, path))))
        relations.append(terms)
    try:
        return build_algebra(vertices, arrows, relations)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def algebra_to_data(alg: BoundQuiverAlgebra) -> dict:
    return {
        "vertices": list(alg.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                   for a in alg.arrows],
        "relations": [
            [{"path": list(key[1]), "coeff": rational_str(coeff)}
             for coeff, key in rel]
            for rel in alg.relations],
    }


# ---------------------------------------------------------------------------
# modules


def module_from_data(data, base_dir=None, max_dim=None) -> FdModule:
    """Build a module from parsed JSON.

    The "algebra" key holds either an inline algebra object or a path,
    resolved relative to base_dir (the directory of the module file).
    Arrows absent from "maps" act by zero.  A module whose dimension is
    above max_dim is refused with RangeError before its maps are read.
    """
    _expect(data, dict, "module")
    alg_ref = _field(data, "algebra", "module")
    if isinstance(alg_ref, str):
        ref = Path(alg_ref)
        if base_dir is not None and not ref.is_absolute():
            ref = Path(base_dir) / ref
        algebra = algebra_from_data(load_json(ref))
    else:
        algebra = algebra_from_data(alg_ref)

    dims_data = _expect(_field(data, "dims", "module"), dict, "dims")
    dims = {}
    for vertex, d in dims_data.items():
        if vertex not in algebra.vertices:
            raise ValidationError(f"dims names an unknown vertex {vertex!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ValidationError(
                f"dims[{vertex!r}] must be a nonnegative integer")
        dims[vertex] = d
    dim = sum(dims.values())
    if max_dim is not None and dim > max_dim:
        raise RangeError(f"the module has dimension {dim}, beyond the "
                         f"budget of {max_dim}")

    maps = {}
    maps_data = _expect(data.get("maps", {}), dict, "maps")
    seen: dict = {}
    for name, rows in maps_data.items():
        if name not in algebra.arrow_by_name:
            raise ValidationError(f"maps names an unknown arrow {name!r}")
        arrow = algebra.arrow_by_name[name]
        maps[name] = _parse_matrix(
            rows,
            dims.get(arrow.target, 0),
            dims.get(arrow.source, 0),
            f"map for arrow {name!r}", seen)
    try:
        return FdModule(algebra, dims, maps)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def module_to_data(m: FdModule) -> dict:
    """Serialize a module with its algebra inline."""
    maps = {}
    for arrow in m.algebra.arrows:
        nrows = m.dims[m.algebra.vertices.index(arrow.target)]
        ncols = m.dims[m.algebra.vertices.index(arrow.source)]
        if nrows and ncols:
            maps[arrow.name] = matrix_to_data(m.maps[arrow.name])
    return {
        "algebra": algebra_to_data(m.algebra),
        "dims": {v: d for v, d in zip(m.algebra.vertices, m.dims) if d},
        "maps": maps,
    }


def load_module(path, max_dim=None) -> FdModule:
    return module_from_data(load_json(path), base_dir=os.path.dirname(path),
                            max_dim=max_dim)


# ---------------------------------------------------------------------------
# weight partitions


def partition_from_data(data) -> WeightPartition:
    _expect(data, dict, "partition")
    classes = _expect(_field(data, "classes", "partition"), list, "classes")
    table = {}
    for i, cls in enumerate(classes):
        _expect(cls, dict, f"class {i}")
        weight = _field(cls, "weight", f"class {i}")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise ValidationError(f"class {i} weight must be an integer")
        if weight in table:
            raise ValidationError(f"weight {weight} appears twice")
        vertices = _expect(_field(cls, "vertices", f"class {i}"),
                           list, "vertices")
        table[weight] = tuple(str(v) for v in vertices)
    try:
        return WeightPartition.of(table)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def partition_to_data(partition: WeightPartition) -> dict:
    return {"classes": [{"weight": w, "vertices": list(vs)}
                        for w, vs in partition.classes]}


def load_partition(path) -> WeightPartition:
    return partition_from_data(load_json(path))


# ---------------------------------------------------------------------------
# comparison points


def _int_poly(coeffs, what: str) -> list:
    _expect(coeffs, list, what)
    out = []
    for i, c in enumerate(coeffs):
        value = parse_rational(c, f"{what}[{i}]")
        if value.denominator != 1:
            raise ValidationError(
                f"{what}[{i}] must be an integer, got {value}")
        out.append(int(value))
    return out


def _nf_elem(field: NumberField, coeffs, what: str) -> NumberFieldElem:
    _expect(coeffs, list, what)
    if len(coeffs) > field.degree:
        raise ValidationError(
            f"{what} has {len(coeffs)} coefficients but the field has "
            f"degree {field.degree}")
    vals = [parse_rational(c, f"{what}[{i}]") for i, c in enumerate(coeffs)]
    return field.elem(vals)


RATIONAL_FIELD_COEFFS = (0, 1)      # the polynomial x, a degree-one field


# A value or coefficient field of degree above this budget is refused
# before it is built: eval's arithmetic in the field grows with the
# degree.  Timed through the CLI with --format json on a shared 2-vCPU
# host, eval on a2/p1^24 (d = 48, the largest module its budget admits)
# over Q[x]/(f), for a monic f with coefficients drawn from [-9, 9] and a
# unit with such coefficients at every path, takes 3.7 s at degree 3,
# 6.2 s at 50 and 9.6 s at 100 (210 MB resident), and 13 s at degree 100
# with f's coefficients drawn from [-1000, 1000].  Building the field,
# whose squarefree check is a gcd modulo one prime, takes 0.04 s at
# degree 100 for either range.  The benchmark asks degree 3.
FIELD_DEGREE_BUDGET = 100


def _number_field(coeffs, what: str) -> NumberField:
    """Q[x]/(f) for f given by its integer coefficients, constant first."""
    poly = _int_poly(coeffs, what)
    if len(poly) - 1 > FIELD_DEGREE_BUDGET:
        raise RangeError(f"'{what}' has degree {len(poly) - 1}, beyond the "
                         f"budget of {FIELD_DEGREE_BUDGET}")
    try:
        return NumberField(poly)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def comparison_from_data(data, algebra: BoundQuiverAlgebra) -> ComparisonPoint:
    """Build a comparison point over a given algebra.

    "field" holds the defining polynomial of the value field L with the
    constant term first; omit it (or use null) for plain rationals.  "u"
    maps path names to L-coordinate arrays, paths not named act by zero.
    A proper coefficient subfield K is given by "coeff_field" (its
    defining polynomial) together with "embedding_of_K" (the image of
    its generator in L); omit both for K = Q.  A field of degree above
    FIELD_DEGREE_BUDGET is refused with RangeError.
    """
    _expect(data, dict, "comparison point")
    field_coeffs = data.get("field")
    if field_coeffs is None:
        field_coeffs = list(RATIONAL_FIELD_COEFFS)
    value_field = _number_field(field_coeffs, "field")

    coeff_field = None
    coeff_image = None
    k_coeffs = data.get("coeff_field")
    k_image = data.get("embedding_of_K")
    if (k_coeffs is None) != (k_image is None):
        raise ValidationError(
            "a proper coefficient field needs both 'coeff_field' and "
            "'embedding_of_K'")
    if k_coeffs is not None:
        coeff_field = _number_field(k_coeffs, "coeff_field")
        coeff_image = _nf_elem(value_field, k_image, "embedding_of_K")

    u_data = _expect(_field(data, "u", "comparison point"), dict, "u")
    coords = [value_field.zero()] * algebra.dim
    for name, coeffs in u_data.items():
        try:
            idx = algebra.basis_by_name(name)
        except KeyError as exc:
            raise ValidationError(
                f"'u' names an unknown path {name!r}") from exc
        coords[idx] = _nf_elem(value_field, coeffs, f"u[{name!r}]")
    try:
        point = ComparisonPoint(value_field, tuple(coords),
                                coeff_field, coeff_image)
        point.embedding()  # embedding_of_K must be a root of coeff_field
        return point
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def load_comparison(path, algebra: BoundQuiverAlgebra) -> ComparisonPoint:
    return comparison_from_data(load_json(path), algebra)


# ---------------------------------------------------------------------------
# coefficient relations


def relation_from_data(data, m: FdModule) -> Matrix:
    """A relation file holds one d-by-d coefficient matrix."""
    _expect(data, dict, "relation")
    return matrix_from_data(_field(data, "matrix", "relation"),
                            m.dim, m.dim, "relation matrix")


def relation_to_data(c: Matrix) -> dict:
    return {"matrix": matrix_to_data(c)}


# ---------------------------------------------------------------------------
# weight-graded inputs for the one-motive dimension counts


def structure_algebra_from_data(data) -> StructureAlgebra:
    _expect(data, dict, "structure algebra")
    unit = _expect(_field(data, "unit", "structure algebra"), list, "unit")
    if not unit:
        raise ValidationError("a coefficient algebra needs a nonempty unit")
    dim = len(unit)
    table = _expect(_field(data, "table", "structure algebra"), list, "table")
    if len(table) != dim:
        raise ValidationError(
            f"structure table must have {dim} rows, got {len(table)}")
    parsed_unit = tuple(parse_rational(c, f"unit[{i}]")
                        for i, c in enumerate(unit))
    parsed_table = []
    for i, row in enumerate(table):
        _expect(row, list, f"table row {i}")
        if len(row) != dim:
            raise ValidationError(
                f"table row {i} must have {dim} cells, got {len(row)}")
        cells = []
        for j, cell in enumerate(row):
            cells.append(tuple(vector_from_data(
                cell, dim, f"table[{i}][{j}]")))
        parsed_table.append(tuple(cells))
    try:
        algebra = StructureAlgebra(dim, parsed_unit, tuple(parsed_table))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if not algebra.check_associative():
        raise ValidationError("structure table is not associative")
    if not algebra.check_unit():
        raise ValidationError("structure unit is not a two-sided unit")
    return algebra


def _action_from_data(data, algebra: StructureAlgebra,
                      what: str) -> list[Matrix]:
    _expect(data, dict, what)
    action = data.get("action")
    if action is None:
        dim = data.get("dim", 0)
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValidationError(
                f"{what} without an action needs a nonnegative 'dim'")
        if dim != 0:
            raise ValidationError(
                f"{what} has positive dimension, so it needs an 'action'")
        mats = [Matrix([], ncols=0) for _ in range(algebra.dim)]
    else:
        _expect(action, list, f"{what} action")
        if len(action) != algebra.dim:
            raise ValidationError(
                f"{what} action must list one matrix per algebra basis "
                f"element ({algebra.dim}), got {len(action)}")
        first = _expect(action[0], list, f"{what} action[0]")
        dim = len(first)
        mats = [matrix_from_data(rows, dim, dim, f"{what} action[{k}]")
                for k, rows in enumerate(action)]
    return mats


def graded_input_from_data(data) -> SaturatedInput:
    _expect(data, dict, "graded input")
    algebra = structure_algebra_from_data(_field(data, "B", "graded input"))
    actions = {key: _action_from_data(_field(data, key, "graded input"),
                                      algebra, key)
               for key in ("HL", "HA", "HT")}
    # checking the actions multiplies them, so the budget comes first
    check_model_budget(*(mats[0].nrows if mats else 0
                         for mats in actions.values()))
    try:
        parts = {key: b_module(algebra, mats)
                 for key, mats in actions.items()}
        return saturated_input(algebra, parts["HA"], parts["HT"],
                               parts["HL"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def load_graded_input(path) -> SaturatedInput:
    return graded_input_from_data(load_json(path))


# ---------------------------------------------------------------------------
# exact sequences and lift targets


def sequence_file_from_data(data, base_dir=None, max_dim=None):
    """A sequence file names a module, a partition, and a weight cut.

    Returns (module, partition, cut); the caller slices.  max_dim bounds
    the module's dimension as in module_from_data.
    """
    _expect(data, dict, "sequence")
    module = module_from_data(_field(data, "module", "sequence"), base_dir,
                              max_dim)
    partition = partition_from_data(_field(data, "partition", "sequence"))
    cut = _field(data, "cut", "sequence")
    if not isinstance(cut, int) or isinstance(cut, bool):
        raise ValidationError("sequence cut must be an integer weight")
    return module, partition, cut


def target_vectors_from_data(data, ambient: FdModule, what: str) -> tuple:
    """A target file holds flat coordinate vectors spanning a submodule."""
    _expect(data, dict, what)
    vectors = _expect(_field(data, "vectors", what), list, "vectors")
    return tuple(vector_from_data(v, ambient.dim, f"{what} vector {i}")
                 for i, v in enumerate(vectors))


# ---------------------------------------------------------------------------
# file schemas, printed by the command line on request

SCHEMAS = {
    "algebra": {
        "vertices": ["v1", "..."],
        "arrows": [{"name": "a", "from": "v1", "to": "v2"}],
        "relations": [[{"path": ["a", "b"], "coeff": "1"}]],
    },
    "module": {
        "algebra": "path/to/algebra.json | inline algebra object",
        "dims": {"v1": 1},
        "maps": {"a": [["1", "0"]]},
    },
    "partition": {
        "classes": [{"weight": 0, "vertices": ["v1"]}],
    },
    "comparison": {
        "field": ["-2", "0", "0", "1"],
        "u": {"e_v1": ["1"], "a": ["0", "1"]},
        "coeff_field": "optional: defining polynomial of K",
        "embedding_of_K": "optional: image of K's generator in L",
    },
    "relation": {
        "matrix": [["0", "1"], ["0", "0"]],
    },
    "sequence": {
        "module": "inline module object",
        "partition": {"classes": [{"weight": 0, "vertices": ["v1"]}]},
        "cut": 0,
    },
    "target": {
        "vectors": [["1", "0", "0"]],
    },
    "graded-input": {
        "B": {"unit": ["1"], "table": [[["1"]]]},
        "HL": {"action": [[["1"]]]},
        "HA": {"action": [[["1", "0"], ["0", "1"]]]},
        "HT": {"dim": 0},
    },
}
