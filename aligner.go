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

// WithResolveAmbiguous makes BuildArchive additionally chain entities
// inside ambiguous alignment classes by matching occurrence profiles; see
// archive.BuildOptions.ResolveAmbiguous. It has no effect on Align.
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

// hooks assembles the core hooks for one Align/BuildArchive call.
func (al *Aligner) hooks(ctx context.Context) core.Hooks {
	h := core.Hooks{Ctx: ctx}
	if al.cfg.progress != nil {
		h.OnRound = al.cfg.progress
	}
	return h
}

// refineOptions translates the extension options into core refinement
// options.
func (al *Aligner) refineOptions() core.RefineOptions {
	var ro core.RefineOptions
	if al.cfg.contextual {
		ro.Direction = core.DirBoth
	}
	if al.cfg.adaptive {
		ro.Adaptive = true
	}
	if len(al.cfg.keyPredicates) > 0 {
		ro.Filter = core.PredicateKeyFilter(al.cfg.keyPredicates...)
	}
	return ro
}

// engine assembles the core engine for one call.
func (al *Aligner) engine(ctx context.Context) *core.Engine {
	return &core.Engine{Opt: al.refineOptions(), Hooks: al.hooks(ctx), MaxDepth: al.cfg.maxDepth}
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
	a := &Alignment{Method: al.cfg.method, Theta: al.cfg.theta, c: c, state: st}
	if al.cfg.method == Trivial {
		p := core.TrivialPartition(c.Graph, in)
		st.trivial = p.Colors()
		a.part = p
		a.rel = newPartitionRelation(c, p, core.NewAlignment(c, p))
		return a, nil
	}
	deblank, itDeblank, err := eng.DeblankFrom(c.Graph, al.basePartition(st, c, in))
	if err != nil {
		return nil, err
	}
	st.deblank = deblank
	return al.finishFromDeblank(eng, a, deblank, itDeblank, nil)
}

// basePartition builds the label partition ℓ of the combined graph and
// records its colors in the session state, where ApplyDelta extends them in
// O(appended nodes) instead of rebuilding the label maps.
func (al *Aligner) basePartition(st *alignState, c *rdf.Combined, in *core.Interner) *core.Partition {
	p := core.LabelPartition(c.Graph, in)
	st.base = p.Colors()
	return p
}

// finishFromDeblank runs the method pipeline from a freshly computed (or
// maintained) deblank partition down to the final relation — the tail
// shared by Align and ApplyDelta. invalidate lists the combined-graph nodes
// whose outbound edge set changed since the previous call (nil on a fresh
// alignment); the overlap matcher drops their cached characterisations.
func (al *Aligner) finishFromDeblank(eng *core.Engine, a *Alignment, deblank *core.Partition, itDeblank int, invalidate []rdf.NodeID) (*Alignment, error) {
	c := a.c
	var err error
	switch al.cfg.method {
	case Deblank:
		a.part = deblank
		a.refineIterations = itDeblank
	case Hybrid:
		a.part, a.refineIterations, err = eng.HybridFromDeblank(c, deblank)
		a.refineIterations += itDeblank
	case Overlap:
		var hybrid *core.Partition
		hybrid, a.refineIterations, err = eng.HybridFromDeblank(c, deblank)
		if err != nil {
			break
		}
		a.refineIterations += itDeblank
		var res *similarity.OverlapResult
		res, err = similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta:      al.cfg.theta,
			Epsilon:    al.cfg.epsilon,
			Hooks:      eng.Hooks,
			Workers:    al.cfg.workers,
			MaxDepth:   al.cfg.maxDepth,
			State:      &a.state.shared.overlap,
			Invalidate: invalidate,
		})
		if err != nil {
			break
		}
		a.part = res.Xi.P
		a.overlapRounds = res.Rounds
		a.rel = newPartitionRelation(c, a.part, res.Alignment(c))
	case SigmaEdit:
		var hybrid *core.Partition
		hybrid, a.refineIterations, err = eng.HybridFromDeblank(c, deblank)
		if err != nil {
			break
		}
		a.refineIterations += itDeblank
		a.part = hybrid
		var s *similarity.SigmaEdit
		s, err = similarity.NewSigmaEdit(c, hybrid, similarity.SigmaEditOptions{
			Epsilon:  al.cfg.epsilon,
			MaxPairs: al.cfg.maxSigmaEditPairs,
			Hooks:    eng.Hooks,
			MaxDepth: al.cfg.maxDepth,
		})
		if err != nil {
			break
		}
		a.rel = newSigmaRelation(c, hybrid, s, al.cfg.theta)
	}
	if err != nil {
		return nil, err
	}
	if a.rel == nil {
		a.rel = newPartitionRelation(c, a.part, core.NewAlignment(c, a.part))
	}
	return a, nil
}
