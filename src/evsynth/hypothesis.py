"""Order and equality constraints on regression coefficients.

A hypothesis is written as one or more relation chains joined by ``&``::

    x4 < x5 < x6
    {x2, x3, x4} > 0
    0 < {b1 = b2} < b3
    2*x1 - x2 > 0.3 & x5 = 0

Each chain expands into its adjacent pairs only, so ``a < b < c`` yields the
two rows ``a < b`` and ``b < c``.  A brace set ``{e1, e2, ...}`` distributes
the relations on either side over every member.  A brace set whose members
are joined by ``=`` adds equality rows between consecutive members and acts
as a single representative (its first member) in the surrounding chain.
Either side of a relation is a linear expression in coefficient names with
optional numeric terms.

Parsing produces a :class:`ConstraintSystem` holding two row systems over
the named coefficients, in order of first appearance::

    R_e @ beta = r_e      (equality rows)
    R_i @ beta > r_i      (inequality rows)

Parsing only turns the text into rows; the :class:`ConstraintSystem`
constructor puts every system, parsed or built from rows, in one normal
form, so one region gives one set of rows however it was stated.  In
order, it scales each equality row so its first nonzero entry is +1;
drops each equality row that the rows before it imply (one in their row
space, within 1e-10) when it agrees with them, and raises a
:class:`ParseError` when it contradicts them (the offsets differing by
more than 1e-10 times the larger of 1 and their magnitudes); divides
each inequality row and its offset by the row's largest absolute entry;
drops each inequality row equal to one before it (within 1e-10); prunes
names whose column is zero in every row; and decides each inequality row
that the equality rows fix (one in their row space): the row holds on the
whole boundary, and is dropped, when the value they imply for it exceeds
its offset by more than that slack, and leaves no region, a
:class:`ParseError`, otherwise.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

_REL_TOKENS = ("<", ">", "=")
_ROW_TOL = 1e-10


class ParseError(ValueError):
    """Raised for any malformed hypothesis string.

    Carries the character position of the offending token so callers can
    point at it.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EqualityComplementUnsupportedError(ValueError):
    """Complements are defined for inequality-only hypotheses."""


class NameMappingError(KeyError):
    """A constrained coefficient is missing from the target name list."""


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Normalized constraint rows over named coefficients.

    Attributes
    ----------
    param_names : tuple of str
        Constrained coefficient names: the given names, in their order,
        less those whose column is zero in every normalized row.
    R_e, r_e : ndarray
        Independent equality rows and right-hand sides,
        ``R_e @ beta = r_e``, each row's first nonzero entry +1.
    R_i, r_i : ndarray
        Distinct inequality rows and right-hand sides, ``R_i @ beta > r_i``,
        each row's largest absolute entry 1, none of them fixed by the
        equality rows.
    R, r : ndarray
        The stacked rows ``[R_e; R_i]`` and ``[r_e; r_i]``.
    rank : int
        The rank of ``R``, the number of independent constraints.
    center : ndarray
        The minimum-norm (least-squares when inconsistent) solution of the
        boundary system ``R @ beta = r`` over ``param_names``.
    consistent : bool
        Whether ``center`` solves the boundary system, to within
        ``1e-8 * max(1, max|r|)``.

    The given rows are copied and normalized as the module docstring says
    (again by :func:`dataclasses.replace`), every array is read-only, and
    the last five attributes are derived from the normalized rows.
    Systems compare and hash by identity (:func:`parse` returns one object
    per text).
    """

    param_names: tuple[str, ...]
    R_e: np.ndarray
    r_e: np.ndarray
    R_i: np.ndarray
    r_i: np.ndarray
    R: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    rank: int = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)
    consistent: bool = field(init=False, repr=False)

    def __post_init__(self):
        names = self.param_names
        if len(set(names)) != len(names):
            raise ValueError("duplicate coefficient names")
        R_e, r_e, R_i, r_i = (np.array(given, dtype=float) for given in
                              (self.R_e, self.r_e, self.R_i, self.r_i))
        for mat, rhs, kind in ((R_e, r_e, "equality"),
                               (R_i, r_i, "inequality")):
            if mat.shape != (len(rhs), len(names)):
                raise ValueError(f"{kind} rows have inconsistent shape")
            if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
                raise ValueError(f"{kind} rows contain non-finite values")
            if mat.shape[0] and not np.abs(mat).max(axis=1).all():
                raise ValueError(f"{kind} system contains an all-zero row")
        if len(r_e) + len(r_i) == 0:
            raise ValueError("constraint system has no rows")
        pivot = R_e[np.arange(len(r_e)), (R_e != 0).argmax(axis=1)]
        R_e, r_e = _independent_equalities(R_e / pivot[:, None], r_e / pivot,
                                           names)
        big = np.abs(R_i).max(axis=1, initial=0.0)
        R_i, r_i = _dedupe(R_i / big[:, None], r_i / big)
        keep = np.flatnonzero(np.abs(np.vstack([R_e, R_i])).max(axis=0) > 0)
        names = tuple(names[j] for j in keep)
        R_e, R_i = R_e[:, keep], R_i[:, keep]
        # after the pruning, so that its lstsq sees the kept columns only
        R_i, r_i = _free_rows(R_e, r_e, R_i, r_i, names)
        R = np.vstack([R_e, R_i])
        r = np.concatenate([r_e, r_i])
        center, *_ = np.linalg.lstsq(R, r, rcond=None)
        residual = np.abs(R @ center - r).max()
        derived = {"param_names": names, "R_e": R_e, "r_e": r_e, "R_i": R_i,
                   "r_i": r_i, "R": R, "r": r,
                   "rank": int(np.linalg.matrix_rank(R)), "center": center,
                   "consistent": not residual > 1e-8 * max(1.0, np.abs(r).max())}
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_eq(self) -> int:
        return self.R_e.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.R_i.shape[0]


@dataclass(frozen=True)
class EtaDistribution:
    """Distribution of eta = R @ beta - r for one block of rows, with the
    degrees of freedom of its coefficient law (infinite for a normal law)."""

    mean: np.ndarray
    scale: np.ndarray
    df: float = np.inf


@dataclass(frozen=True)
class TransformedConstraints:
    """Equality- and inequality-space images of a coefficient distribution.

    ``cross`` is the inequality-by-equality block of the joint eta scale,
    present when both blocks are.
    """

    eq: EtaDistribution | None
    ineq: EtaDistribution | None
    cross: np.ndarray | None = None


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>[{}=<>,&*+()-])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


@dataclass
class _Expr:
    # linear expression: sum of coef*name terms plus a constant
    coefs: dict[str, float]
    const: float
    pos: int


@dataclass
class _Term:
    members: list[_Expr]          # representatives exposed to the chain
    eq_pairs: list[tuple[_Expr, _Expr]]  # from {a = b = c} brace form
    pos: int


@dataclass
class _RawConstraint:
    rel: str
    left: _Expr
    right: _Expr
    pos: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.param_order: dict[str, None] = {}

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def _accept(self, text: str) -> _Token | None:
        tok = self._peek()
        if tok is not None and tok.text == text:
            self.i += 1
            return tok
        return None

    def parse(self) -> list[_RawConstraint]:
        if not self.tokens:
            raise ParseError("empty hypothesis")
        constraints = self._chain()
        while self._accept("&"):
            constraints += self._chain()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return constraints

    def _chain(self) -> list[_RawConstraint]:
        terms = [self._term()]
        rels: list[_Token] = []
        while True:
            tok = self._peek()
            if tok is not None and tok.text in _REL_TOKENS:
                rels.append(self._next())
                terms.append(self._term())
            else:
                break
        if not rels:
            raise ParseError("expected a relation (<, > or =)", terms[0].pos)
        out: list[_RawConstraint] = []
        for term in terms:
            for a, b in term.eq_pairs:
                out.append(_RawConstraint("=", a, b, term.pos))
        for left, rel, right in zip(terms, rels, terms[1:]):
            for le in left.members:
                for re_ in right.members:
                    out.append(_RawConstraint(rel.text, le, re_, rel.pos))
        return out

    def _term(self) -> _Term:
        tok = self._peek()
        if tok is not None and tok.text == "{":
            open_tok = self._next()
            exprs = [self._expr()]
            sep = None
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise ParseError("unterminated brace set", open_tok.pos)
                if nxt.text == "}":
                    self._next()
                    break
                if nxt.text in (",", "="):
                    if sep is None:
                        sep = nxt.text
                    elif nxt.text != sep:
                        raise ParseError("brace set mixes ',' and '='", nxt.pos)
                    self._next()
                    exprs.append(self._expr())
                else:
                    raise ParseError(f"unexpected token {nxt.text!r} in brace set", nxt.pos)
            if sep == "=":
                pairs = list(zip(exprs, exprs[1:]))
                return _Term([exprs[0]], pairs, open_tok.pos)
            return _Term(exprs, [], open_tok.pos)
        expr = self._expr()
        return _Term([expr], [], expr.pos)

    def _expr(self) -> _Expr:
        tok = self._peek()
        if tok is None:
            raise ParseError("expected an expression")
        start = tok.pos
        coefs: dict[str, float] = {}
        const = 0.0
        sign = 1.0
        if tok.text in ("+", "-"):
            self._next()
            sign = -1.0 if tok.text == "-" else 1.0
        while True:
            coefs, const = self._addend(sign, coefs, const)
            nxt = self._peek()
            if nxt is not None and nxt.text in ("+", "-"):
                self._next()
                sign = -1.0 if nxt.text == "-" else 1.0
            else:
                break
        return _Expr(coefs, const, start)

    def _addend(self, sign: float,
                coefs: dict[str, float], const: float) -> tuple[dict[str, float], float]:
        tok = self._next()
        if tok.kind == "number":
            value = float(tok.text)
            if not np.isfinite(value):
                raise ParseError(f"non-finite number {tok.text!r}", tok.pos)
            if self._accept("*"):
                name_tok = self._next()
                if name_tok.kind != "name":
                    raise ParseError("expected a coefficient name after '*'", name_tok.pos)
                self.param_order.setdefault(name_tok.text, None)
                coefs[name_tok.text] = coefs.get(name_tok.text, 0.0) + sign * value
            else:
                const += sign * value
        elif tok.kind == "name":
            self.param_order.setdefault(tok.text, None)
            coefs[tok.text] = coefs.get(tok.text, 0.0) + sign
        else:
            raise ParseError(f"expected a coefficient or number, got {tok.text!r}", tok.pos)
        return coefs, const


def parse(text: str) -> ConstraintSystem:
    """Parse a hypothesis string into a :class:`ConstraintSystem`.

    Parsed systems are kept per text (the last 256 in a process), so every
    call with one text returns the same object, and its stacked rows,
    rank and boundary center are computed once.  Errors are raised again
    on every call.

    Parameters
    ----------
    text : str
        Hypothesis in the constraint syntax described in the module
        docstring.

    Returns
    -------
    ConstraintSystem

    Raises
    ------
    ParseError
        If the string is malformed, a constraint involves no
        coefficients (e.g. ``"1 > 0"``), an equality row contradicts
        the ones before it (e.g. ``"b1 = 0 & b1 = 1"``), or the equality
        rows fix an inequality row at or below its offset, leaving no
        region (e.g. ``"b1 = 0 & b1 > 0"``).
    """
    if not isinstance(text, str):
        raise ParseError("hypothesis must be a string")
    return _parse(text)


def label_of(text: str) -> str:
    """The label an evidence record gives a hypothesis text: the text
    without its spaces."""
    return text.replace(" ", "")


@functools.lru_cache(maxsize=256)
def _parse(text: str) -> ConstraintSystem:
    parser = _Parser(text)
    raw = parser.parse()
    names = tuple(parser.param_order)
    index = {name: j for j, name in enumerate(names)}
    rows, rhs = np.zeros((len(raw), len(names))), np.zeros(len(raw))
    for k, con in enumerate(raw):
        for name, coef in con.left.coefs.items():
            rows[k, index[name]] += coef
        for name, coef in con.right.coefs.items():
            rows[k, index[name]] -= coef
        rhs[k] = con.right.const - con.left.const
        if con.rel == "<":
            rows[k], rhs[k] = -rows[k], -rhs[k]
        if not np.abs(rows[k]).max(initial=0.0):
            raise ParseError("constraint contains no coefficients", con.pos)
    eq = np.array([con.rel == "=" for con in raw])
    return ConstraintSystem(names, rows[eq], rhs[eq], rows[~eq], rhs[~eq])


def _free_rows(R_e: np.ndarray, r_e: np.ndarray, R_i: np.ndarray,
               r_i: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
    """The inequality rows that the equality rows do not fix.  A fixed row
    holds on the whole equality boundary, and is dropped, when the value
    they imply exceeds its offset by more than ``_row_slack``; otherwise
    the region is empty, a ParseError."""
    free = np.ones(len(r_i), dtype=bool)
    for j in range(len(r_i)):
        implied = _implied(R_e, r_e, R_i[j])
        if implied is None:
            continue
        if not implied - r_i[j] > _row_slack(r_i[j], implied):
            lhs = _format_row(R_i[j], names)
            raise ParseError(f"empty region: {lhs} > {float(r_i[j])!r} stated, "
                             f"{lhs} = {implied!r} implied by the equality rows")
        free[j] = False
    return R_i[free], r_i[free]


def _dedupe(R: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``R @ beta > r`` without those equal, within _ROW_TOL, to
    one before them."""
    keep: list[int] = []
    for j in range(len(r)):
        if not ((np.abs(R[keep] - R[j]).max(axis=1, initial=0.0) <= _ROW_TOL)
                & (np.abs(r[keep] - r[j]) <= _ROW_TOL)).any():
            keep.append(j)
    return R[keep], r[keep]


def _implied(K: np.ndarray, k: np.ndarray, row: np.ndarray) -> float | None:
    """The value that the equality rows ``K @ beta = k`` fix for
    ``row @ beta``, or None unless ``row`` lies in their row space (within
    _ROW_TOL)."""
    if not K.shape[0]:
        return None
    coefs, *_ = np.linalg.lstsq(K.T, row, rcond=None)
    if np.abs(row - K.T @ coefs).max(initial=0.0) > _ROW_TOL:
        return None
    return float(coefs @ k)


def _row_slack(stated: float, implied: float) -> float:
    """How far a value the equality rows imply may stand from a stated
    offset and still count as equal to it: _ROW_TOL, relative to the larger
    of 1 and both magnitudes.  Large offsets are judged by their own
    rounding; two values of size 1 or less, by _ROW_TOL itself."""
    return _ROW_TOL * max(1.0, abs(stated), abs(implied))


def _independent_equalities(R: np.ndarray, r: np.ndarray,
                            names) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``R @ beta = r`` without those that the rows before them
    imply; a row that they contradict, by more than ``_row_slack``, is a
    ParseError."""
    keep: list[int] = []
    for j in range(len(r)):
        implied = _implied(R[keep], r[keep], R[j])
        if implied is None:
            keep.append(j)
        elif abs(implied - r[j]) > _row_slack(r[j], implied):
            lhs = _format_row(R[j], names)
            raise ParseError(f"contradictory equality constraints: {lhs} = "
                             f"{float(r[j])!r} stated, {lhs} = {implied!r} "
                             "implied by the equality rows before it")
    return R[keep], r[keep]


def _format_row(row: np.ndarray, names: tuple[str, ...]) -> str:
    parts: list[str] = []
    for coef, name in zip(row, names):
        if coef == 0:
            continue
        mag = name if abs(coef) == 1 else f"{abs(float(coef))!r}*{name}"
        if not parts:
            parts.append(f"-{mag}" if coef < 0 else mag)
        else:
            parts.append(f"- {mag}" if coef < 0 else f"+ {mag}")
    return " ".join(parts)


def columns(h: ConstraintSystem,
            names: tuple[str, ...] | list[str]) -> list[int]:
    """Positions of ``h.param_names`` in ``names``.

    Raises
    ------
    NameMappingError
        If a constrained coefficient is not in ``names``.
    """
    try:
        return [names.index(name) for name in h.param_names]
    except ValueError:
        missing = [n for n in h.param_names if n not in names]
        raise NameMappingError(f"hypothesis names {missing} not among "
                               f"coefficients {list(names)}") from None


def transform_constraints(h: ConstraintSystem,
                          mean: np.ndarray,
                          scale: np.ndarray,
                          names: tuple[str, ...] | list[str],
                          df: float = np.inf) -> TransformedConstraints:
    """Map a coefficient distribution into constraint (eta) space.

    Only the law's block on the constrained coefficients is read: with its
    mean m and scale S over ``h.param_names``, eta = R @ beta - r has mean
    ``h.R @ m - h.r`` and scale ``h.R @ S @ h.R.T``, split into equality
    and inequality blocks; Student-t degrees of freedom pass through
    unchanged.

    Parameters
    ----------
    h : ConstraintSystem
    mean : ndarray, shape (p,)
    scale : ndarray, shape (p, p)
    names : sequence of str
        Coefficient names aligned with ``mean``/``scale``, among them every
        name of ``h`` (else :class:`NameMappingError`).
    df : float, optional
        Degrees of freedom of a Student-t law; infinite, the default, for a
        normal law.

    Returns
    -------
    TransformedConstraints
        With ``eq`` and/or ``ineq`` populated depending on the rows in
        ``h``, and ``cross`` when both are.
    """
    cols = columns(h, names)
    mean = np.asarray(mean, dtype=float).take(cols)
    scale = np.asarray(scale, dtype=float).take(cols, 0).take(cols, 1)
    eta_mean = h.R @ mean - h.r
    eta_scale = h.R @ scale @ h.R.T
    eta_scale = (eta_scale + eta_scale.T) / 2.0
    ke = h.n_eq
    eq = EtaDistribution(eta_mean[:ke], eta_scale[:ke, :ke], df) if ke else None
    ineq = (EtaDistribution(eta_mean[ke:], eta_scale[ke:, ke:], df)
            if h.n_ineq else None)
    cross = eta_scale[ke:, :ke] if eq and ineq else None
    return TransformedConstraints(eq, ineq, cross)
