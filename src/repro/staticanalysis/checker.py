"""EdgeChecker: the guard-facing bundle of all three static layers.

One instance rides inside a :class:`GuardedPhaseRunner` for a whole
enumeration.  After every *active* phase application the guard hands
it the pre-phase snapshot and the transformed function;
:meth:`check_edge` runs, in order:

1. the IR sanitizer over the transformed function (quarantine kind
   ``sanitizer``);
2. the phase contract across the edge (kind ``contract``);
3. in ``full`` mode, the translation validator — a ``refuted`` verdict
   quarantines under the existing ``semantics`` kind, the same bucket
   the VM difftester uses.

The checker is purely observational on healthy code: it never mutates
the function, so enumerated DAGs are bit-identical with it on or off.
Per-check counters accumulate on the instance and surface through the
``sanitize_stats`` observability event.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.function import Function, Program
from repro.staticanalysis import contracts as contracts_mod
from repro.staticanalysis import sanitize as sanitize_mod
from repro.staticanalysis.transval import (
    REFUTED,
    TranslationValidator,
)

_DETAIL_FINDINGS = 3  # findings quoted in a quarantine detail string


def _summary(findings) -> str:
    shown = "; ".join(str(finding) for finding in findings[:_DETAIL_FINDINGS])
    extra = len(findings) - _DETAIL_FINDINGS
    if extra > 0:
        shown += f" (+{extra} more)"
    return shown


class EdgeChecker:
    """Sanitizer + contract checker + translation validator for edges."""

    def __init__(
        self,
        mode: str = sanitize_mod.FAST,
        program: Optional[Program] = None,
        entry: Optional[str] = None,
    ):
        if mode not in sanitize_mod.MODES:
            raise ValueError(
                f"unknown sanitizer mode {mode!r} (expected fast|full)"
            )
        self.mode = mode
        self.program = program
        self.transval: Optional[TranslationValidator] = None
        if mode == sanitize_mod.FULL:
            self.transval = TranslationValidator(program, entry)
        #: last full-mode verdict status, for callers that label edges
        self.last_verdict: Optional[str] = None
        self.counters: Dict[str, int] = {
            "edges": 0,
            "findings": 0,
            "contract_violations": 0,
            "proved": 0,
            "tested": 0,
            "unverified": 0,
            "refuted": 0,
        }

    # ------------------------------------------------------------------

    def check_edge(
        self, before: Function, after: Function, phase
    ) -> Optional[Tuple[str, str]]:
        """Verify one applied edge; return ``(quarantine_kind,
        detail)`` on failure, None when the edge is clean."""
        self.counters["edges"] += 1
        self.last_verdict = None
        findings = sanitize_mod.sanitize_function(
            after, self.program, self.mode
        )
        if findings:
            self.counters["findings"] += len(findings)
            return "sanitizer", _summary(findings)
        violations = contracts_mod.check_contract(phase.id, before, after)
        if violations:
            self.counters["contract_violations"] += len(violations)
            return "contract", _summary(violations)
        if self.transval is not None:
            verdict = self.transval.classify(before, after)
            self.counters[verdict.status] += 1
            self.last_verdict = verdict.status
            if verdict.status == REFUTED:
                return "semantics", f"translation validator: {verdict.detail}"
        return None

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for the ``sanitize_stats`` event."""
        return dict(self.counters)
