package core

import "context"

// Stage names reported through Hooks.OnRound.
const (
	// StageRefine is one partition-refinement iteration (§3.2).
	StageRefine = "refine"
	// StagePropagate is one weighted-refinement round inside Propagate
	// (§4.5).
	StagePropagate = "propagate"
	// StageOverlap is one enrich/propagate round of Algorithm 2 (§4.7).
	StageOverlap = "overlap"
	// StageSigmaEdit is one σEdit distance-propagation round (§4.2).
	StageSigmaEdit = "sigmaedit"
	// StageArchive is one archived version of a multi-version build.
	StageArchive = "archive"
)

// ProgressEvent reports one completed round of a long-running stage.
type ProgressEvent struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Round counts completed rounds within the stage, starting at 1.
	Round int
	// Total is the number of rounds known in advance (archive versions);
	// 0 when the stage runs to a fixpoint of unknown length.
	Total int
	// Dirty is the round's work: for refinement stages the number of
	// nodes the round recolored — the worklist frontier's size; for
	// overlap rounds the number of candidate pairs the
	// matching screened since the previous overlap event (the first round
	// includes the initial literal matching); 0 for archive versions.
	Dirty int
}

// Hooks threads session-level controls — cancellation and progress
// observation — through the refinement fixpoints and the similarity
// propagation loops. The zero Hooks is valid: no cancellation, no progress
// reporting, and no overhead beyond two nil checks per round.
type Hooks struct {
	// Ctx, when non-nil, is checked at least once per round; a cancelled
	// context aborts the enclosing loop, which returns Ctx.Err().
	Ctx context.Context
	// OnRound, when non-nil, is invoked after every completed round. It is
	// called synchronously from the hot loop and must return quickly.
	OnRound func(ProgressEvent)
}

// Err reports the cancellation state of the hooks' context.
func (h Hooks) Err() error {
	if h.Ctx == nil {
		return nil
	}
	return h.Ctx.Err()
}

// Round reports a completed round to the progress observer, if any.
func (h Hooks) Round(stage string, round, total int) {
	if h.OnRound != nil {
		h.OnRound(ProgressEvent{Stage: stage, Round: round, Total: total})
	}
}

// RoundDirty is Round for the stages that additionally report the
// completed round's work (see ProgressEvent.Dirty).
func (h Hooks) RoundDirty(stage string, round, dirty int) {
	if h.OnRound != nil {
		h.OnRound(ProgressEvent{Stage: stage, Round: round, Dirty: dirty})
	}
}
