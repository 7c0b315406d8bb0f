package core

import (
	"errors"
	"fmt"

	"rdfalign/internal/rdf"
)

// DefaultMaxIterations caps refinement fixpoint loops. Refinement is
// guaranteed to terminate after at most |N_G| iterations (each non-final
// iteration strictly increases the class count, which is bounded by the node
// count), so the cap exists only to turn would-be infinite loops from
// implementation bugs into an ErrNoFixpoint error.
const DefaultMaxIterations = 1 << 20

// maxIterations is the cap the refinement loops apply: DefaultMaxIterations,
// lowered by the tests that exercise the cap.
var maxIterations = DefaultMaxIterations

// ErrNoFixpoint is returned, wrapped in a *NoFixpointError, by a fixpoint
// loop that reaches its round cap without stabilising.
var ErrNoFixpoint = errors.New("fixpoint not reached")

// NoFixpointError names the stage (one of the Stage* constants) and the
// round at which a fixpoint loop gave up. It matches ErrNoFixpoint under
// errors.Is.
type NoFixpointError struct {
	Stage string
	Round int
}

func (e *NoFixpointError) Error() string {
	return fmt.Sprintf("%s: %v after %d rounds", e.Stage, ErrNoFixpoint, e.Round)
}

func (e *NoFixpointError) Unwrap() error { return ErrNoFixpoint }

// recolor computes recolor_λ(n) = (λ(n), {(λ(p), λ(o)) | (p,o) ∈ out(n)})
// (§3.2 equation 1) using the scratch pair buffer. The composite is
// hash-interned (sighash.go): beyond gathering the pairs, a recolor costs
// one signature hash and an open-addressed probe, with no allocation
// unless the color is genuinely new.
func recolor(g *rdf.Graph, p *Partition, n rdf.NodeID, scratch []ColorPair) (Color, []ColorPair) {
	out := g.Out(n)
	scratch = scratch[:0]
	for _, e := range out {
		scratch = append(scratch, ColorPair{P: p.colors[e.P], O: p.colors[e.O]})
	}
	return p.in.Composite(p.colors[n], scratch), scratch
}
