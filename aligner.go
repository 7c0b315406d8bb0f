package rdfalign

import (
	"context"
	"fmt"
	"runtime"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// Progress reports one completed round of a long-running alignment stage.
// Stage is one of "refine" (partition refinement, §3), "propagate"
// (weighted refinement inside a propagation, §4.5), "overlap" (Algorithm 2
// rounds, §4.7), "sigmaedit" (σEdit propagation rounds, §4.2) or "archive"
// (one archived version); Round counts completed rounds within the stage
// from 1, and Total is the round count when known in advance (archive
// versions) or 0 for fixpoints of unknown length.
type Progress = core.ProgressEvent

// ErrNoFixpoint matches, under errors.Is, the error an alignment returns
// when a refinement, overlap or σEdit fixpoint reaches its round cap
// without stabilising; the message names the stage and the round.
var ErrNoFixpoint = core.ErrNoFixpoint

// ProgressFunc observes per-round progress of an Aligner. It is called
// synchronously from the alignment loops — and, when the Aligner is used
// concurrently, from multiple goroutines — so it must be fast and
// thread-safe.
type ProgressFunc func(Progress)

// alignerConfig is the resolved functional-option state of an Aligner.
type alignerConfig struct {
	method            Method
	theta             float64
	epsilon           float64
	maxSigmaEditPairs int
	contextual        bool
	adaptive          bool
	keyPredicates     []string
	resolveAmbiguous  bool
	progress          ProgressFunc
	workers           int
	maxDepth          int
	storage           core.Storage
}

// Option configures an Aligner. Options are applied in order by NewAligner;
// later options override earlier ones.
type Option func(*alignerConfig)

// WithMethod selects the alignment algorithm (default Trivial, matching the
// zero Options).
func WithMethod(m Method) Option {
	return func(c *alignerConfig) { c.method = m }
}

// WithTheta sets the similarity threshold θ ∈ (0, 1] for Overlap and
// SigmaEdit. Zero selects the default 0.65 (the paper's evaluation
// setting), matching the legacy Options.Theta semantics; any other value
// outside (0, 1] makes NewAligner fail. The accepted range, the zero-value
// semantics and the error wording are shared with the similarity layer
// (similarity.ValidateTheta).
func WithTheta(theta float64) Option {
	return func(c *alignerConfig) { c.theta = theta }
}

// WithEpsilon sets the weight/distance stabilisation threshold for the
// fixpoint iterations (default 1e-9).
func WithEpsilon(eps float64) Option {
	return func(c *alignerConfig) { c.epsilon = eps }
}

// WithMaxSigmaEditPairs bounds the σEdit pair matrix (default 4e6).
func WithMaxSigmaEditPairs(n int) Option {
	return func(c *alignerConfig) { c.maxSigmaEditPairs = n }
}

// WithContextual switches the Deblank and Hybrid refinements to the
// context-aware variant of §3.3/§6: nodes are characterised by their
// incoming edges as well as their contents. Stricter — nodes with equal
// contents but different contexts no longer align.
func WithContextual() Option {
	return func(c *alignerConfig) { c.contextual = true }
}

// WithAdaptive enables §5.1's suggested treatment of URIs used only in
// predicate position: nodes without contents are characterised by their
// predicate occurrences (the subject/object colors of triples using them),
// falling back to their context. Fixes the paper's known predicate
// misalignment errors.
func WithAdaptive() Option {
	return func(c *alignerConfig) { c.adaptive = true }
}

// WithKeyPredicates restricts refinement to edges whose predicate URI is
// listed — the graph-key variant of §6. An empty list removes the
// restriction.
func WithKeyPredicates(keys ...string) Option {
	return func(c *alignerConfig) { c.keyPredicates = keys }
}

// WithMaxDepth bounds every refinement fixpoint of the session at k applied
// rounds — bounded-depth k-bisimulation, the cheap approximate alignment
// mode: partition refinement (deblank/hybrid), weighted propagation inside
// the Overlap rounds, and σEdit distance propagation are all capped
// uniformly (core.Engine.MaxDepth and the similarity layer's MaxDepth
// options). k = 0 (the default) runs the exact unbounded fixpoints; a
// negative k makes NewAligner fail. For every k the determinism guarantee
// of the exact alignment carries over: colorings, weights and pair sets are
// bit-identical for every worker count, and a fixpoint that stabilises
// before round k is unaffected — large enough k reproduces the exact
// alignment byte for byte.
func WithMaxDepth(k int) Option {
	return func(c *alignerConfig) { c.maxDepth = k }
}

// WithResolveAmbiguous makes BuildArchive, AppendVersion and
// AppendAlignment additionally chain entities inside ambiguous alignment
// classes by matching occurrence profiles; see archive.Archive.Append. It
// has no effect on Align.
func WithResolveAmbiguous() Option {
	return func(c *alignerConfig) { c.resolveAmbiguous = true }
}

// WithProgress registers a per-round progress observer.
func WithProgress(f ProgressFunc) Option {
	return func(c *alignerConfig) { c.progress = f }
}

// WithParallelism parallelises the Overlap method's matching phases of
// Algorithm 2 (candidate generation and σ/edit-distance verification fan
// out across source nodes) across the given number of goroutines. It has
// no effect on the other methods: partition refinement, propagation and
// σEdit always run sequentially, because a parallel refinement round lost
// to the sequential worklist engine on two cores. workers == 1 runs
// sequentially; workers <= 0 selects GOMAXPROCS — callers exposing a "0
// means sequential" knob (like cmd/rdfalign's -workers flag) must therefore
// not call WithParallelism for non-positive values. Results are identical
// to the sequential run — colorings, weights and pair sets are
// bit-identical for every worker count.
func WithParallelism(workers int) Option {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return func(c *alignerConfig) { c.workers = workers }
}

// Aligner is a reusable alignment session: a validated configuration that
// can align any number of graph pairs (and build archives) with context
// cancellation and per-round progress reporting. An Aligner is immutable
// after construction and safe for concurrent use by multiple goroutines.
type Aligner struct {
	cfg alignerConfig
	// opts is the option list the session was built from, kept so With can
	// derive a new session without the caller re-assembling its
	// configuration.
	opts []Option
}

// NewAligner validates the options and returns a session. The zero-option
// session matches the package defaults: the Trivial method at θ = 0.65.
func NewAligner(opts ...Option) (*Aligner, error) {
	var cfg alignerConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.theta == 0 {
		cfg.theta = similarity.DefaultTheta
	}
	if err := similarity.ValidateTheta(cfg.theta); err != nil {
		return nil, fmt.Errorf("rdfalign: %w", err)
	}
	switch cfg.method {
	case Trivial, Deblank, Hybrid, Overlap, SigmaEdit:
	default:
		return nil, fmt.Errorf("rdfalign: unknown method %v", cfg.method)
	}
	if cfg.maxDepth < 0 {
		return nil, fmt.Errorf("rdfalign: max depth %d outside [0, ∞) (zero selects the exact unbounded fixpoint)", cfg.maxDepth)
	}
	return &Aligner{cfg: cfg, opts: append([]Option(nil), opts...)}, nil
}

// With derives a new session from this one: the receiver's options are
// re-applied, then opts on top (later options override earlier ones, as in
// NewAligner). The receiver is unchanged. Services use this to attach
// per-request state — a job-scoped progress observer, a request-scoped
// worker budget — to a shared base configuration:
//
//	jobAligner, err := base.With(WithProgress(job.observe), WithParallelism(slots))
func (al *Aligner) With(opts ...Option) (*Aligner, error) {
	merged := make([]Option, 0, len(al.opts)+len(opts))
	merged = append(merged, al.opts...)
	merged = append(merged, opts...)
	return NewAligner(merged...)
}

// Method returns the session's alignment method.
func (al *Aligner) Method() Method { return al.cfg.method }

// Theta returns the session's resolved similarity threshold θ (the
// default 0.65 when no WithTheta option was given).
func (al *Aligner) Theta() float64 { return al.cfg.theta }

// MaxDepth returns the session's refinement depth bound k: 0 for the exact
// unbounded fixpoints, k > 0 for bounded-depth k-bisimulation
// (WithMaxDepth).
func (al *Aligner) MaxDepth() int { return al.cfg.maxDepth }

// engine assembles the core engine for one call: the context and progress
// observer as hooks, the extension options as refinement options, and the
// depth bound.
func (al *Aligner) engine(ctx context.Context) *core.Engine {
	e := &core.Engine{Hooks: core.Hooks{Ctx: ctx, OnRound: al.cfg.progress}, MaxDepth: al.cfg.maxDepth}
	if al.cfg.contextual {
		e.Opt.Direction = core.DirBoth
	}
	e.Opt.Adaptive = al.cfg.adaptive
	if len(al.cfg.keyPredicates) > 0 {
		e.Opt.Filter = core.PredicateKeyFilter(al.cfg.keyPredicates...)
	}
	return e
}

// Align aligns a source and a target graph. The context is checked before
// work starts and once per round of every long-running fixpoint (partition
// refinement, overlap enrich/propagate rounds, σEdit propagation); on
// cancellation Align promptly returns ctx.Err(). A nil ctx is treated as
// context.Background().
//
// The returned Alignment carries the session state of the pair — the color
// interner, the maintained colorings and the overlap matcher caches — which
// ApplyDelta resumes from to maintain the alignment under target-graph
// edits at a cost proportional to the change (see session.go).
func (al *Aligner) Align(ctx context.Context, g1, g2 *Graph) (*Alignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := al.engine(ctx)
	var c *rdf.Combined
	var in *core.Interner
	if al.cfg.storage != nil {
		// Out-of-core (WithStorage): the combined graph's columns, the
		// color arrays and the interner's pair lists come from the
		// session storage, and refinement spills signature grouping to
		// the storage's directory. Results are bit-identical to the
		// in-memory path.
		c = rdf.UnionIn(al.cfg.storage, g1, g2)
		in = core.NewInternerIn(al.cfg.storage)
	} else {
		c = rdf.Union(g1, g2)
		in = core.NewInterner()
	}
	st := &alignState{al: al, shared: &sessionShared{in: in}, c: c}
	eng.Work = core.NewWorkspace()
	a := &Alignment{Method: al.cfg.method, Theta: al.cfg.theta, c: c, state: st}
	var s stages
	var err error
	if al.cfg.method == Trivial {
		s.part = core.TrivialPartition(c.Graph, in)
		st.trivial = s.part.Colors()
	} else if s, err = al.pipeline(eng, al.cfg.method, c, in, st); err != nil {
		return nil, err
	}
	al.relate(a, s)
	return a, nil
}

// stages holds the method tail's results: the final partition, the total
// refinement rounds, and the Overlap or σEdit result of those methods.
type stages struct {
	part             *core.Partition
	refineIterations int
	overlap          *similarity.OverlapResult
	sigma            *similarity.SigmaEdit
}

// pipeline runs label partition → deblank → method tail over c: the one
// composition behind Align and the archive's pair alignment, on the
// engine's workspace. A non-nil st keeps the label colors, the deblank
// fixpoint and the overlap matcher caches for ApplyDelta.
func (al *Aligner) pipeline(eng *core.Engine, method Method, c *rdf.Combined, in *core.Interner, st *alignState) (stages, error) {
	base := core.LabelPartition(c.Graph, in)
	eng.Work.Track(c, base)
	deblank, itDeblank, err := eng.DeblankFrom(c.Graph, base)
	if err != nil {
		return stages{}, err
	}
	var overlap *similarity.OverlapState
	if st != nil {
		st.base, st.deblank, overlap = base.Colors(), deblank, &st.shared.overlap
	}
	return al.finishFromDeblank(eng, method, c, deblank, itDeblank, overlap, nil)
}

// finishFromDeblank runs the method tail (Deblank, Hybrid, Overlap or
// SigmaEdit) from a fresh or maintained deblank partition, on the engine's
// workspace. state carries the overlap matcher caches across calls (nil
// for none); invalidate lists the nodes whose outbound edge set changed
// since the previous call (nil on a fresh alignment), whose cached
// characterisations the matcher drops.
func (al *Aligner) finishFromDeblank(eng *core.Engine, method Method, c *rdf.Combined, deblank *core.Partition, itDeblank int,
	state *similarity.OverlapState, invalidate []rdf.NodeID) (stages, error) {
	if method == Deblank {
		return stages{part: deblank, refineIterations: itDeblank}, nil
	}
	hybrid, it, err := eng.HybridFromDeblank(c, deblank)
	if err != nil {
		return stages{}, err
	}
	s := stages{part: hybrid, refineIterations: itDeblank + it}
	switch method {
	case Overlap:
		s.overlap, err = similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta:      al.cfg.theta,
			Epsilon:    al.cfg.epsilon,
			Hooks:      eng.Hooks,
			Workers:    al.cfg.workers,
			MaxDepth:   al.cfg.maxDepth,
			State:      state,
			Invalidate: invalidate,
			Work:       eng.Work,
		})
		if err == nil {
			s.part = s.overlap.Xi.P
		}
	case SigmaEdit:
		s.sigma, err = similarity.NewSigmaEdit(c, hybrid, similarity.SigmaEditOptions{
			Epsilon:  al.cfg.epsilon,
			MaxPairs: al.cfg.maxSigmaEditPairs,
			Hooks:    eng.Hooks,
			MaxDepth: al.cfg.maxDepth,
		})
	}
	return s, err
}

// relate fills a's partition, diagnostics and relation from the stages.
func (al *Aligner) relate(a *Alignment, s stages) {
	a.part, a.refineIterations = s.part, s.refineIterations
	switch {
	case s.overlap != nil:
		a.overlapRounds = s.overlap.Rounds
		a.rel = s.overlap.Alignment(a.c)
	case s.sigma != nil:
		a.rel = newSigmaRelation(a.c, a.part, s.sigma, al.cfg.theta)
	default:
		a.rel = core.NewAlignment(a.c, a.part)
	}
}
