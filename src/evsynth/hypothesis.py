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
the named coefficients::

    R_e @ beta = r_e      (equality rows)
    R_i @ beta > r_i      (inequality rows)

Every system, parsed or built directly, scales each inequality row and its
offset so that the row's largest absolute entry is 1, and decides each
inequality row that its equality rows fix (one in their row space): the
row holds on the whole boundary, and is dropped, when the value they
imply for it exceeds its offset, and leaves no region, a
:class:`ParseError`, otherwise.  Parsing also scales equality rows so
their first nonzero entry is +1, drops exact duplicate inequality rows,
removes linearly dependent equality rows (a duplicate among them) when
they agree with the rows kept and rejects them with a :class:`ParseError`
when they contradict them, and prunes names that end up with all-zero
columns.
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
        Constrained coefficient names, in order of first appearance.
    R_e, r_e : ndarray
        Equality rows and right-hand sides, ``R_e @ beta = r_e``.
    R_i, r_i : ndarray
        Inequality rows and right-hand sides, ``R_i @ beta > r_i``, each
        row's largest absolute entry 1, none of them fixed by the equality
        rows.
    R, r : ndarray
        The stacked rows ``[R_e; R_i]`` and ``[r_e; r_i]``.
    rank : int
        The rank of ``R``, the number of independent constraints.
    center : ndarray
        The minimum-norm (least-squares when inconsistent) solution of the
        boundary system ``R @ beta = r`` over ``param_names``.
    consistent : bool
        Whether ``center`` solves the boundary system.

    The given rows are copied, each inequality row and its offset divided
    by the row's largest absolute entry, inequality rows that the equality
    rows fix dropped or rejected (module docstring), every array is
    read-only, and the last five attributes are derived from those rows at
    construction (again by :func:`dataclasses.replace`).  Systems compare
    and hash by identity (:func:`parse` returns one object per text).
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
        p = len(self.param_names)
        if len(set(self.param_names)) != p:
            raise ValueError("duplicate coefficient names")
        R_e, r_e, R_i, r_i = (np.array(given) for given in
                              (self.R_e, self.r_e, self.R_i, self.r_i))
        for mat, rhs, kind in ((R_e, r_e, "equality"),
                               (R_i, r_i, "inequality")):
            if mat.shape != (len(rhs), p):
                raise ValueError(f"{kind} rows have inconsistent shape")
            if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
                raise ValueError(f"{kind} rows contain non-finite values")
            if mat.shape[0] and not np.abs(mat).max(axis=1).all():
                raise ValueError(f"{kind} system contains an all-zero row")
        if len(r_e) + len(r_i) == 0:
            raise ValueError("constraint system has no rows")
        R_i, r_i = _free_rows(R_e, r_e, *_unit_rows(R_i, r_i), self.param_names)
        R = np.vstack([R_e, R_i])
        r = np.concatenate([r_e, r_i])
        center, *_ = np.linalg.lstsq(R, r, rcond=None)
        derived = {"R_e": R_e, "r_e": r_e, "R_i": R_i, "r_i": r_i, "R": R,
                   "r": r, "rank": int(np.linalg.matrix_rank(R)),
                   "center": center,
                   "consistent": not np.abs(R @ center - r).max() > 1e-8}
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
    names = list(parser.param_order)

    eq_rows: list[tuple[np.ndarray, float]] = []
    ineq_rows: list[tuple[np.ndarray, float]] = []
    index = {name: j for j, name in enumerate(names)}
    for con in raw:
        row = np.zeros(len(names))
        for name, coef in con.left.coefs.items():
            row[index[name]] += coef
        for name, coef in con.right.coefs.items():
            row[index[name]] -= coef
        rhs = con.right.const - con.left.const
        if con.rel == "<":
            row, rhs = -row, -rhs
        if not np.abs(row).max(initial=0.0):
            raise ParseError("constraint contains no coefficients", con.pos)
        if con.rel == "=":
            pivot = row[np.flatnonzero(row)[0]]
            eq_rows.append((row / pivot, rhs / pivot))
        else:
            ineq_rows.append(_unit_rows(row, rhs))

    eq_rows = _independent_equalities(eq_rows, names)
    ineq_rows = _dedupe(ineq_rows)

    R_e, r_e = _stack(eq_rows, len(names))
    R_i, r_i = _stack(ineq_rows, len(names))

    # prune names whose column is zero everywhere (e.g. 0*b coefficients)
    used = np.zeros(len(names), dtype=bool)
    if R_e.size:
        used |= np.abs(R_e).max(axis=0) > 0
    if R_i.size:
        used |= np.abs(R_i).max(axis=0) > 0
    keep = np.flatnonzero(used)
    names = [names[j] for j in keep]
    R_e = R_e[:, keep]
    R_i = R_i[:, keep]

    return ConstraintSystem(tuple(names), R_e, r_e, R_i, r_i)


def _unit_rows(R: np.ndarray, r):
    """Inequality rows (one, or a matrix of them) and their offsets, each
    divided by the row's largest absolute entry: c R_j beta > c r_j is one
    region for every c > 0, and so it has one set of rows."""
    big = np.abs(R).max(axis=-1, initial=0.0)
    return R / big[..., None], r / big


def _free_rows(R_e: np.ndarray, r_e: np.ndarray, R_i: np.ndarray,
               r_i: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
    """The inequality rows that the equality rows do not fix.  A fixed row
    holds on the whole equality boundary, and is dropped, when the value
    they imply exceeds its offset by more than _ROW_TOL; otherwise the
    region is empty, a ParseError."""
    free = np.ones(len(r_i), dtype=bool)
    for j in range(len(r_i)):
        implied = _implied(R_e, r_e, R_i[j])
        if implied is None:
            continue
        if not implied - r_i[j] > _ROW_TOL:
            lhs = _format_row(R_i[j], names)
            raise ParseError(f"empty region: {lhs} > {float(r_i[j])!r} stated, "
                             f"{lhs} = {implied!r} implied by the equality rows")
        free[j] = False
    return R_i[free], r_i[free]


def _dedupe(rows: list[tuple[np.ndarray, float]]) -> list[tuple[np.ndarray, float]]:
    kept: list[tuple[np.ndarray, float]] = []
    for row, rhs in rows:
        dup = any(np.abs(row - krow).max(initial=0.0) <= _ROW_TOL
                  and abs(rhs - krhs) <= _ROW_TOL
                  for krow, krhs in kept)
        if not dup:
            kept.append((row, rhs))
    return kept


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


def _independent_equalities(rows: list[tuple[np.ndarray, float]],
                            names: list[str]) -> list[tuple[np.ndarray, float]]:
    kept: list[tuple[np.ndarray, float]] = []
    for row, rhs in rows:
        implied = _implied(*_stack(kept, len(row)), row)
        if implied is None:
            kept.append((row, rhs))
            continue
        if abs(implied - rhs) > _ROW_TOL:
            lhs = _format_row(row, names)
            raise ParseError(f"contradictory equality constraints: {lhs} = "
                             f"{float(rhs)!r} stated, {lhs} = {implied!r} "
                             "implied by the equality rows before it")
        # dependent and consistent: silently dropped
    return kept


def _stack(rows: list[tuple[np.ndarray, float]], p: int) -> tuple[np.ndarray, np.ndarray]:
    if not rows:
        return np.zeros((0, p)), np.zeros(0)
    return np.array([r for r, _ in rows]), np.array([c for _, c in rows])


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
