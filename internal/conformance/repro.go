package conformance

import (
	"encoding/json"
	"fmt"
)

// Repro is a minimized, serializable reproducer for one law violation:
// the design recipe plus (for edit-script laws) the exact edits. Failing
// sweeps emit these; once the underlying bug is fixed the record moves
// into testdata/repros/ and replays forever as a regression case.
type Repro struct {
	Invariant string     `json:"invariant"`
	Design    DesignSpec `json:"design"`
	Edits     []EditOp   `json:"edits,omitempty"`
	// Note says what the record demonstrates (free text for humans).
	Note string `json:"note,omitempty"`
}

// Replay re-evaluates the repro's law on its recorded design (and edit
// script, when present). A nil return means the law holds.
func Replay(r Repro) error {
	var law *Invariant
	for _, inv := range Registry() {
		if inv.Name == r.Invariant {
			law = &inv
			break
		}
	}
	if law == nil {
		return fmt.Errorf("repro references unknown invariant %q", r.Invariant)
	}
	cx := newCtx(law.Scope, r.Design, len(r.Edits))
	cx.ForcedEdits = r.Edits
	return law.Check(cx)
}

// Minimize shrinks a failing repro while the failure persists, using
// ddmin-style chunk removal over the edit script followed by a greedy
// single-edit pass. check is the failure oracle (non-nil error = still
// failing); Replay is the production oracle, injectable for tests.
func Minimize(r Repro, check func(Repro) error) Repro {
	if check(r) == nil {
		return r // not failing; nothing to minimize against
	}
	edits := r.Edits
	for chunk := len(edits) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(edits); {
			trial := r
			trial.Edits = append(append([]EditOp(nil), edits[:i]...), edits[i+chunk:]...)
			if check(trial) != nil {
				edits = trial.Edits
				// Same offset now holds the next chunk; don't advance.
				continue
			}
			i += chunk
		}
	}
	r.Edits = edits
	return r
}

// Format renders a repro as the indented JSON developers commit to
// testdata/repros/.
func Format(r Repro) string {
	b, _ := json.MarshalIndent(r, "", "  ")
	return string(b) + "\n"
}
