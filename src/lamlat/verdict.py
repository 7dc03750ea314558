"""Pass/fail results with an optional minimal witness, and the report records' dict codec."""

from dataclasses import MISSING, dataclass, fields
from enum import Enum
from types import UnionType
from typing import get_args, get_origin, get_type_hints


class DictRecord:
    """Dataclass mixin: to_dict/from_dict derived from the field types.

    Encoding maps tuples to lists, frozensets to sorted lists, enums to
    their values and nested records to dicts; decoding inverts each
    mapping. A key missing from the dict takes the field's default, else
    None.
    """

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        hints = get_type_hints(cls)
        return cls(**{
            f.name: _decode(hints[f.name], d[f.name]) if f.name in d
            else f.default if f.default is not MISSING else None
            for f in fields(cls)
        })


def _encode(v):
    if isinstance(v, DictRecord):
        return v.to_dict()
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, frozenset):
        return sorted(v)
    return list(v) if isinstance(v, tuple) else v


def _decode(hint, v):
    if v is None:
        return None
    if isinstance(hint, UnionType):  # X | None
        hint = next(a for a in get_args(hint) if a is not type(None))
    kind = get_origin(hint) or hint
    if issubclass(kind, DictRecord):
        return kind.from_dict(v)
    if issubclass(kind, (Enum, frozenset, tuple)):
        return kind(v)
    return v


@dataclass(frozen=True)
class Verdict(DictRecord):
    """Outcome of a property check.

    The witness is the lexicographically least violating tuple of element
    indices; it is present exactly when the check fails.
    """

    holds: bool
    witness: tuple[int, ...] | None = None
    note: str = ""

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a passing verdict must not carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.holds


HOLDS = Verdict(True)  # frozen, so one instance serves every passing check
_FAILING: dict[tuple, Verdict] = {}  # (witness, note) -> its one failing verdict


def failing(witness: tuple[int, ...], note: str = "") -> Verdict:
    """The failing verdict with this witness and note: built through Verdict once, then shared."""
    v = _FAILING.get((witness, note))
    return v if v is not None else _FAILING.setdefault((witness, note), Verdict(False, witness, note))
