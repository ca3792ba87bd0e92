"""Linear recurrences for the counting sequences and OEIS cross-checks.

The counting sequence of a space obeys the recurrence of its adjacency
matrix's characteristic polynomial with every factor λ stripped: a monic
λ^d - c_1 λ^(d-1) - ... - c_d with c_d != 0 gives term(k) = c_1
term(k-1) + ... + c_d term(k-d) for every k > d. derive_recurrence
proves this for every n, so no term is computed to decide it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .errors import FixtureError, InsufficientTermsError, InvalidArgumentError
from .exactalg import walk_char_poly, walk_vectors
from .opgraph import Family, OperationSpace, build_space

# Sequence ids of the counting sequences, keyed by (family, dimension).
OEIS_IDS = {
    (Family.A, 3): "A020701",
    (Family.A, 4): "A090989",
    (Family.A, 5): "A090990",
    (Family.A, 6): "A090991",
    (Family.A, 7): "A090992",
    (Family.A, 8): "A090993",
    (Family.A, 9): "A090994",
    (Family.A, 10): "A090995",
    (Family.B, 3): "A000079",
    (Family.B, 4): "A090990",
    (Family.B, 5): "A007283",
    (Family.B, 6): "A090992",
    (Family.B, 7): "A000079",
    (Family.B, 8): "A090994",
    (Family.B, 9): "A020714",
    (Family.B, 10): "A129638",
}

_ALIGNMENT_WINDOW = 3
_MIN_OVERLAP = 10

ENV_FIXTURES_DIR = "DIFFOPS_FIXTURES"


@dataclass(frozen=True)
class RecurrenceSpec:
    """term(k) = c_1 term(k-1) + ... + c_order term(k-order), k > order."""

    order: int
    coefficients: tuple[int, ...]

    def applies(self, terms: Sequence[int], k: int) -> bool:
        """Check the recurrence at one index (terms[0] is k = 1)."""
        lhs = terms[k - 1]
        rhs = sum(c * terms[k - 1 - i] for i, c in enumerate(self.coefficients, 1))
        return lhs == rhs


@dataclass(frozen=True)
class SequenceRecord:
    family: Family
    n: int
    terms: tuple[int, ...]
    recurrence: RecurrenceSpec
    oeis_id: Optional[str] = None


@dataclass(frozen=True)
class OeisComparison:
    sequence_id: str
    family: Family
    n: int
    passed: bool
    offset: Optional[int]
    matched_terms: int
    source: str  # "fixtures" | "online" | "offline-fallback"


def derive_recurrence(space: OperationSpace) -> RecurrenceSpec:
    """The recurrence of the characteristic polynomial p = det(λI - M) with
    every factor λ stripped; it holds for every k past its order.

    Notation: N operations, r = m + 1 function sets, C[i][s] = [cod(ops[i])
    = s] (N×r), D[s][j] = [dom(ops[j]) = s] (r×N), so the adjacency matrix
    is M = C·D and count_k = 1ᵀM^(k-1)1. The set matrix T = D·C (r×r)
    counts in T[s][t] the operations from A_s to A_t.

    - Every operation has one domain and one codomain, so 1ᵀC = 1ᵀT,
      D1 = T1 and N = 1ᵀT1. Since M^(t+1) = C·T^t·D, every polynomial h
      gives 1ᵀh(M)1 = 1ᵀ·T·h(T)·1; h = λ^(k-1) gives count_k = 1ᵀT^k1.
    - By the signature table, nabla_s maps A_(s-1) to A_s and
      nabla_(n+1-s) maps A_s to A_(s-1) for s = 1..m; the only loops are
      nabla_0 on A_0 (family B) and nabla_(m+1) on A_m (odd n). So T is a
      Jacobi matrix: symmetric and tridiagonal with unit off-diagonals.
      Its eigenvalues are simple: for any μ, deleting the first row and
      the last column of T - μI leaves a triangular matrix with unit
      diagonal, so μ has at most a one-dimensional eigenspace, and T is
      symmetric, so diagonalisable.
    - By Sylvester's identity p = λ^(N-r)·q with q = det(λI - T)
      (walk_char_poly). The root 0 of q is at most simple, so q = λ^z·q'
      with z <= 1 and q'(0) != 0, and stripping every λ from p leaves q'.
      T·q'(T) = 0 in both cases: it is T·q(T) or q(T), and q(T) = 0 by
      Cayley-Hamilton.
    - Hence 1ᵀM^j q'(M)1 = 1ᵀT^j·(T·q'(T))·1 = 0 for every j >= 0. With
      q' = λ^d - c_1 λ^(d-1) - ... - c_d this reads count_k = c_1
      count_(k-1) + ... + c_d count_(k-d) for every k > d (k = j + d + 1).

    The rule equals trimming trailing zero coefficients off p's
    recurrence while the shorter one still fits the computed counts: each
    λ^i·q' is the same relation shifted, so it fits, and q' ends the trim
    because c_d = -q'(0) != 0. tests/test_sequences.py keeps that sampled
    trim as the oracle.
    """
    coeffs = walk_char_poly(space).coeffs  # lowest degree first, monic
    q = coeffs[next(i for i, c in enumerate(coeffs) if c):]
    return RecurrenceSpec(len(q) - 1, tuple(-c for c in reversed(q[:-1])))


def verify_recurrence(record: SequenceRecord, upto_k: int) -> bool:
    """True iff every k in (order, upto_k] satisfies the recurrence exactly;
    a range with no such k is rejected rather than passed vacuously."""
    if upto_k > len(record.terms):
        raise InsufficientTermsError(
            f"record holds {len(record.terms)} terms, need {upto_k}"
        )
    rec = record.recurrence
    if upto_k <= rec.order:
        raise InvalidArgumentError(
            f"nothing to verify: need upto_k > recurrence order {rec.order}, got {upto_k}"
        )
    return all(rec.applies(record.terms, k) for k in range(rec.order + 1, upto_k + 1))


def make_record(family, n: int, num_terms: int = 30) -> SequenceRecord:
    """Build a sequence record: the counts for k = 1..num_terms from one
    walk (none when num_terms < 1) and the derived recurrence."""
    fam = Family.coerce(family)
    space = build_space(n, fam)
    terms = tuple(sum(vec) for vec in walk_vectors(space, num_terms)) if num_terms > 0 else ()
    return SequenceRecord(fam, n, terms, derive_recurrence(space), OEIS_IDS.get((fam, n)))


def recurrence_table(family, n_from: int = 3, n_to: int = 10) -> list[RecurrenceSpec]:
    """Derived recurrences for one family over a dimension range."""
    fam = Family.coerce(family)
    if n_from > n_to:
        raise InvalidArgumentError(f"empty dimension range {n_from}..{n_to}")
    return [derive_recurrence(build_space(n, fam)) for n in range(n_from, n_to + 1)]


def format_recurrence(spec: RecurrenceSpec, symbol: str = "f") -> str:
    """Render e.g. 'f(k) = f(k-1) + 2 f(k-2) - f(k-3)', skipping zero terms."""
    parts: list[str] = []
    for i, c in enumerate(spec.coefficients, 1):
        if c == 0:
            continue
        mag = abs(c)
        body = f"{symbol}(k-{i})" if mag == 1 else f"{mag} {symbol}(k-{i})"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    rhs = " ".join(parts) if parts else "0"
    return f"{symbol}(k) = {rhs}"


# ---------------------------------------------------------------------------
# Fixtures and the optional online client
# ---------------------------------------------------------------------------

def fixture_ids() -> tuple[str, ...]:
    return tuple(sorted(set(OEIS_IDS.values())))


def id_associations(sequence_id: str) -> list[tuple[Family, int]]:
    """All (family, n) pairs whose counting sequence carries this id."""
    return [key for key, sid in OEIS_IDS.items() if sid == sequence_id]


def fixture_path(sequence_id: str) -> Path:
    """The id's fixture file, in the directory named by DIFFOPS_FIXTURES
    if that is set, else among the fixtures bundled with the package."""
    base = os.environ.get(ENV_FIXTURES_DIR) or resources.files(__package__).joinpath("fixtures")
    return Path(str(base)) / f"{sequence_id}.txt"


def load_fixture(sequence_id: str) -> list[int]:
    """Read one fixture file: id on the first line, comma-separated terms
    on the second."""
    path = fixture_path(sequence_id)
    if not path.is_file():
        raise FixtureError(f"no fixture for sequence id {sequence_id!r} at {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0].strip() != sequence_id:
        raise FixtureError(f"malformed fixture file {path}")
    try:
        return [int(t) for t in lines[1].split(",")]
    except ValueError as exc:
        raise FixtureError(f"malformed fixture terms in {path}: {exc}") from None


def parse_bfile(text: str) -> list[int]:
    """Parse b-file text ('index value' per line, # comments) into terms."""
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise FixtureError(f"malformed b-file line: {line!r}")
        try:
            terms.append(int(parts[1]))
        except ValueError:
            raise FixtureError(f"malformed b-file line: {line!r}") from None
    if not terms:
        raise FixtureError("empty b-file")
    return terms


def fetch_oeis_terms(sequence_id: str, timeout: float = 5.0) -> list[int]:
    """Fetch terms from the public database's plain-text b-file endpoint.

    Raises on any network or format problem; callers fall back to fixtures.
    """
    # imported here so that http.client, email and ssl load only for a fetch
    from urllib.request import Request, urlopen

    url = f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"
    req = Request(url, headers={"User-Agent": "diffops/0.1"})
    with urlopen(req, timeout=timeout) as resp:
        status = getattr(resp, "status", 200)
        if status != 200:
            raise FixtureError(f"HTTP {status} fetching {url}")
        text = resp.read().decode("utf-8", "replace")
    return parse_bfile(text)


def _best_alignment(terms: Sequence[int], ref: Sequence[int]):
    """Smallest-|shift| alignment with all overlapping terms equal, or None.

    Shift d means terms[t] lines up with ref[t + d].
    """
    for d in sorted(range(-_ALIGNMENT_WINDOW, _ALIGNMENT_WINDOW + 1), key=lambda x: (abs(x), x)):
        matched = 0
        ok = True
        for t, val in enumerate(terms):
            p = t + d
            if 0 <= p < len(ref):
                if ref[p] != val:
                    ok = False
                    break
                matched += 1
        if ok and matched >= _MIN_OVERLAP:
            return d, matched
    return None


def oeis_compare(record: SequenceRecord, mode: str = "offline") -> OeisComparison:
    """Compare a record's terms against the database sequence it cites.

    Offsets in the database differ from k = 1 indexing by small constants,
    so alignment shifts in [-3, 3] are searched. Online mode fetches the
    b-file and falls back to the bundled fixture on any failure, marking
    the report source accordingly.
    """
    if record.oeis_id is None:
        raise FixtureError(f"record (family {record.family.value}, n={record.n}) has no sequence id")
    if len(record.terms) < _MIN_OVERLAP:
        raise InsufficientTermsError(
            f"record holds {len(record.terms)} terms, need at least {_MIN_OVERLAP}"
        )
    if mode not in ("offline", "online"):
        raise ValueError(f"unknown mode {mode!r}")

    ref = None
    source = "fixtures"
    if mode == "online":
        try:
            ref = fetch_oeis_terms(record.oeis_id)
            source = "online"
        except Exception:
            ref = None
            source = "offline-fallback"
    if ref is None:
        ref = load_fixture(record.oeis_id)

    found = _best_alignment(record.terms, ref)
    if found is None:
        return OeisComparison(record.oeis_id, record.family, record.n, False, None, 0, source)
    d, matched = found
    return OeisComparison(record.oeis_id, record.family, record.n, True, d, matched, source)
