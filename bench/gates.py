"""Output checks.  Each returns the list of reasons an operation failed;
an empty list is a pass.  They run outside the timed region."""

from __future__ import annotations

import hashlib
import json


def census_failures(code: int, report: bytes | None, graphs: int,
                    pinned_sha256: str | None = None,
                    reference: bytes | None = None) -> list[str]:
    """A census fails when it exits non-zero, writes no report or a report
    with violations, examines other than ``graphs`` graphs, or differs from
    the pinned digest or from the reference report bytes."""
    if code != 0:
        return [f"census exited with code {code}"]
    if report is None:
        return ["census wrote no report"]
    try:
        doc = json.loads(report)
        examined, violations = doc["graphs"], doc["violations_total"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    out = []
    if violations != 0:
        out.append(f"violations_total is {violations}")
    if examined != graphs:
        out.append(f"report examined {examined} graphs, stream has {graphs}")
    if pinned_sha256 is not None and hashlib.sha256(report).hexdigest() != pinned_sha256:
        out.append("report differs from the pinned SHA-256")
    if reference is not None and report != reference:
        out.append("report bytes differ from the reference report")
    return out


def witness_from_dict(doc: dict):
    """Rebuild a decider witness from its ``to_dict`` form."""
    from matchext.decision import BlockedExtension, CharacterizationViolation, NoKMatching

    kind = doc["kind"]
    if kind == NoKMatching.kind:
        return NoKMatching(tuple(doc["deleted"]))
    if kind == BlockedExtension.kind:
        return BlockedExtension(
            tuple(doc["deleted"]),
            tuple(tuple(e) for e in doc["matching"]),
            tuple(doc["blocker"]),
        )
    if kind == CharacterizationViolation.kind:
        return CharacterizationViolation(doc["condition"], tuple(doc["subset"]))
    raise ValueError(f"unknown witness kind {kind!r}")


def check_failures(code: int, stdout: str, graph, params) -> list[str]:
    """A ``check --method both --json`` call fails when it exits with other
    than 0 or 1, its JSON is unreadable or has ``"agreement": false``, its
    exit code disagrees with ``holds``, or a failing verdict carries no
    witness or one that ``decision.verify_witness`` rejects."""
    from matchext.decision import verify_witness

    if code not in (0, 1):
        return [f"check exited with code {code}"]
    try:
        doc = json.loads(stdout)
        agreement, holds, verdicts = doc["agreement"], doc["holds"], doc["verdicts"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable check output: {exc!r}"]
    out = []
    if agreement is not True:
        out.append("the two deciders disagree")
    if (code == 0) != (holds is True):
        out.append(f"exit code {code} with holds={holds}")
    for method, verdict in sorted(verdicts.items()):
        if verdict.get("holds"):
            continue
        try:
            witness = witness_from_dict(verdict["witness"])
        except (ValueError, KeyError, TypeError) as exc:
            out.append(f"{method}: unreadable witness: {exc!r}")
            continue
        if not verify_witness(graph, params, witness):
            out.append(f"{method}: witness fails re-verification")
    return out
