"""Check reports: structured pass/fail results with exact residues."""

from __future__ import annotations

from collections import namedtuple

from .polytrig import constant_mod_free


class CheckItem(namedtuple("CheckItem", "label passed residue note", defaults=(None, None))):
    """One verdict: a label, whether it passed, and an optional residue and note."""

    __slots__ = ()

    def to_dict(self):
        out = {"label": self.label, "status": "pass" if self.passed else "fail"}
        if self.residue is not None:
            out["residue"] = self.residue
        if self.note is not None:
            out["note"] = self.note
        return out


class CheckReport:
    """The items checked for one identity, and notes on how they were checked."""

    def __init__(self, identity):
        self.identity = identity
        self.items = []
        self.notes = []

    @property
    def passed(self):
        """True iff the report checked something and every item passed."""
        return bool(self.items) and all(it.passed for it in self.items)

    def add(self, label, passed, residue=None, note=None):
        self.items.append(CheckItem(label, passed, residue, note))

    def to_dict(self):
        return {
            "identity": self.identity,
            "status": "pass" if self.passed else "fail",
            "items": [it.to_dict() for it in sorted(self.items, key=lambda i: i.label)],
            "notes": list(self.notes),
        }


def vec_label(*vecs):
    """Item label for a tuple of vectors: "(a,b); (c,d)"."""
    return "; ".join("(" + ",".join(str(x) for x in v) + ")" for v in vecs)


def phase_item(report, label, slack):
    """Record whether the exponent slack is a constant in 2*pi*Z.

    The one place a mod-2*pi verdict is decided: a slack that is not constant
    beyond scalar.DEFAULT_TOL fails with residue "nonconstant"; a constant one
    is rendered mod 2*pi.
    """
    c = constant_mod_free(slack)
    if c is None:
        report.add(label, False, residue="nonconstant")
        return False
    ok = c.in_two_pi_Z()
    report.add(label, ok, residue=str(c.mod_two_pi()))
    return ok
