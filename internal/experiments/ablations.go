package experiments

import (
	"fmt"
	"time"

	"rdfalign/internal/core"
	"rdfalign/internal/dataset"
	"rdfalign/internal/flooding"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
	"rdfalign/internal/strdist"
	"rdfalign/internal/truth"
)

// AblationSigmaEditResult compares the exact σEdit distance (§4.2) with its
// overlap approximation (§4.7) on a graph pair small enough for σEdit: the
// pairs each aligns, their agreement, Theorem 1 violations (expected 0) and
// the wall-clock cost of each method.
type AblationSigmaEditResult struct {
	Nodes             int
	OverlapPairs      int // clustered pairs with σ_ξ ≤ θ
	SigmaPairs        int // pairs with σEdit ≤ θ
	OverlapInSigma    int // overlap pairs also aligned by σEdit (Theorem 1 says all)
	TheoremViolations int
	SigmaTime         time.Duration
	OverlapTime       time.Duration
}

// AblationSigmaEdit runs both methods on a reduced GtoPdb churn pair (the
// 3→4 insertion burst): the burst leaves many nodes unaligned by hybrid, so
// σEdit's quadratic pair matrix dominates its cost, while Overlap stays
// near-linear — the paper's motivation for the approximation.
func (e *Env) AblationSigmaEdit() *AblationSigmaEditResult {
	cfg := e.Cfg
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 4, Scale: cfg.GtoPdbScale / 5, Seed: cfg.Seed})
	if err != nil {
		panic(err)
	}
	c := rdf.Union(d.Graphs[2], d.Graphs[3])
	in := core.NewInterner()
	hybrid, _, _ := (&core.Engine{}).Hybrid(c, in)

	out := &AblationSigmaEditResult{Nodes: c.NumNodes()}

	start := time.Now()
	overlap, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
		Theta: cfg.Theta, Epsilon: cfg.Epsilon,
	})
	if err != nil {
		panic(err)
	}
	out.OverlapTime = time.Since(start)

	start = time.Now()
	sigma, err := similarity.NewSigmaEdit(c, hybrid, similarity.SigmaEditOptions{Epsilon: cfg.Epsilon})
	if err != nil {
		panic(err)
	}
	out.SigmaTime = time.Since(start)

	xi := overlap.Xi
	for i := 0; i < c.N1; i++ {
		for j := c.N1; j < c.N1+c.N2; j++ {
			n, m := rdf.NodeID(i), rdf.NodeID(j)
			d := sigma.Distance(n, m)
			inSigma := d <= cfg.Theta
			if inSigma {
				out.SigmaPairs++
			}
			if xi.P.Color(n) == xi.P.Color(m) && core.OPlus(xi.W[n], xi.W[m]) <= cfg.Theta {
				out.OverlapPairs++
				if inSigma {
					out.OverlapInSigma++
				}
				if d > core.OPlus(xi.W[n], xi.W[m])+1e-9 {
					out.TheoremViolations++
				}
			}
		}
	}
	return out
}

// String renders the ablation.
func (r *AblationSigmaEditResult) String() string {
	return renderTable("Ablation: σEdit (exact) vs Overlap (approximation), same θ",
		[]string{"metric", "value"},
		[][]string{
			{"combined nodes", itoa(r.Nodes)},
			{"pairs aligned by Overlap", itoa(r.OverlapPairs)},
			{"pairs aligned by σEdit", itoa(r.SigmaPairs)},
			{"Overlap pairs confirmed by σEdit", itoa(r.OverlapInSigma)},
			{"Theorem 1 violations", itoa(r.TheoremViolations)},
			{"σEdit wall-clock", r.SigmaTime.String()},
			{"Overlap wall-clock", r.OverlapTime.String()},
		})
}

// AblationPrefixFilterResult compares Algorithm 1's inverted-index +
// frequency-prefix candidate generation against the brute-force all-pairs
// filter it replaces, on the literal-matching workload of a GtoPdb pair.
type AblationPrefixFilterResult struct {
	SourceLiterals int
	TargetLiterals int
	HeuristicPairs int
	BrutePairs     int
	HeuristicTime  time.Duration
	BruteTime      time.Duration
}

// AblationPrefixFilter measures both strategies.
func (e *Env) AblationPrefixFilter() *AblationPrefixFilterResult {
	d := e.GtoPdb()
	a := e.pairBase("gtopdb", d.Graphs, 0, 1)
	theta := e.Cfg.Theta

	un1, un2 := core.Unaligned(a.c, a.hybrid)
	var litA, litB []rdf.NodeID
	for _, n := range un1 {
		if a.c.IsLiteral(n) {
			litA = append(litA, n)
		}
	}
	for _, n := range un2 {
		if a.c.IsLiteral(n) {
			litB = append(litB, n)
		}
	}
	out := &AblationPrefixFilterResult{SourceLiterals: len(litA), TargetLiterals: len(litB)}

	char := func(n rdf.NodeID) []string { return similarity.Split(a.c.Label(n).Value) }
	dist := func(n, m rdf.NodeID) (float64, bool) {
		return strdist.WithinThreshold(a.c.Label(n).Value, a.c.Label(m).Value, theta)
	}

	start := time.Now()
	h, _ := similarity.OverlapMatch(litA, litB, theta, char, dist, core.Hooks{}, 1) // no context: cannot fail
	out.HeuristicTime = time.Since(start)
	out.HeuristicPairs = len(h.Edges)

	start = time.Now()
	brute := 0
	for _, n := range litA {
		cn := char(n)
		for _, m := range litB {
			if similarity.Overlap(cn, char(m)) < theta {
				continue
			}
			if _, ok := dist(n, m); ok {
				brute++
			}
		}
	}
	out.BruteTime = time.Since(start)
	out.BrutePairs = brute
	return out
}

// String renders the ablation.
func (r *AblationPrefixFilterResult) String() string {
	return renderTable("Ablation: Algorithm 1 inverted index vs brute-force all-pairs (literal matching)",
		[]string{"metric", "value"},
		[][]string{
			{"source literals", itoa(r.SourceLiterals)},
			{"target literals", itoa(r.TargetLiterals)},
			{"pairs found (heuristic)", itoa(r.HeuristicPairs)},
			{"pairs found (brute force)", itoa(r.BrutePairs)},
			{"heuristic wall-clock", r.HeuristicTime.String()},
			{"brute-force wall-clock", r.BruteTime.String()},
		})
}

// AblationFloodingResult compares the similarity-flooding baseline of the
// paper's related work ([12]) with the Overlap alignment: precision against
// the ground truth and wall-clock, on an EFO pair (shared vocabulary, so
// flooding can propagate) and on a GtoPdb pair (per-version prefixes leave
// no shared predicate labels, so flooding's pairwise connectivity graph is
// empty — the structural reason the paper's problem is harder than schema
// matching).
type AblationFloodingResult struct {
	EFOFlood    truth.Precision
	EFOOverlap  truth.Precision
	EFOFloodT   time.Duration
	EFOOverlapT time.Duration
	GtoPdbPCG   int // flooding PCG pairs on the prefix-disjoint setting
}

// AblationFlooding runs the comparison.
func (e *Env) AblationFlooding() *AblationFloodingResult {
	out := &AblationFloodingResult{}

	// EFO pair with shared vocabulary.
	d, err := dataset.GenerateEFO(dataset.EFOConfig{Versions: 2, Scale: 0.01, Seed: e.Cfg.Seed + 2})
	if err != nil {
		panic(err)
	}
	tr := d.GroundTruth(0, 1)
	c := rdf.Union(d.Graphs[0], d.Graphs[1])

	start := time.Now()
	fl, err := flooding.Flood(c, flooding.Options{})
	if err != nil {
		panic(err)
	}
	out.EFOFloodT = time.Since(start)
	out.EFOFlood = truth.Classify(c, func(n rdf.NodeID) []rdf.NodeID {
		var local []rdf.NodeID
		for _, m := range fl.MatchesOf(n) {
			local = append(local, c.ToTarget(m))
		}
		return local
	}, tr)

	start = time.Now()
	in := core.NewInterner()
	hybrid, _, _ := (&core.Engine{}).Hybrid(c, in)
	ov, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
		Theta: e.Cfg.Theta, Epsilon: e.Cfg.Epsilon,
	})
	if err != nil {
		panic(err)
	}
	out.EFOOverlapT = time.Since(start)
	out.EFOOverlap = truth.Classify(c, ov.Alignment(c).MatchesOf, tr)

	// GtoPdb pair: flooding has nothing to propagate through.
	g, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 2, Scale: e.Cfg.GtoPdbScale / 5, Seed: e.Cfg.Seed})
	if err != nil {
		panic(err)
	}
	cg := rdf.Union(g.Graphs[0], g.Graphs[1])
	fg, err := flooding.Flood(cg, flooding.Options{})
	if err != nil {
		panic(err)
	}
	out.GtoPdbPCG = fg.PairCount()
	return out
}

// String renders the ablation.
func (r *AblationFloodingResult) String() string {
	row := func(name string, p truth.Precision, t time.Duration) []string {
		return []string{name, itoa(p.Exact), itoa(p.Inclusive), itoa(p.False), itoa(p.Missing), t.String()}
	}
	return renderTable("Ablation: similarity flooding [12] vs Overlap (EFO pair with shared vocabulary)",
		[]string{"method", "exact", "inclusive", "false", "missing", "time"},
		[][]string{
			row("flooding", r.EFOFlood, r.EFOFloodT),
			row("overlap", r.EFOOverlap, r.EFOOverlapT),
		}) +
		fmt.Sprintf("flooding PCG on the prefix-disjoint GtoPdb pair: %d pairs (no shared predicate labels → nothing to flood)\n", r.GtoPdbPCG)
}

// AblationRefinementResult compares the hash-consing partition-refinement
// engine (Proposition 1) against the naive quadratic greatest-fixpoint
// bisimulation solver on the same graph.
type AblationRefinementResult struct {
	Nodes      int
	Triples    int
	RefineTime time.Duration
	NaiveTime  time.Duration
	Agree      bool
}

// efoTiny generates a 2-version EFO-like pair at a small scale, for
// ablations that need graphs the quadratic baselines can handle.
func efoTiny(seed int64, scale float64) ([]*rdf.Graph, error) {
	d, err := dataset.GenerateEFO(dataset.EFOConfig{Versions: 2, Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return d.Graphs, nil
}

// AblationContextResult compares the paper's contents-only hybrid
// refinement against the §6 context-aware variant (incoming edges included)
// on the EFO prefix-migration pair, scored against the generator's ground
// truth.
type AblationContextResult struct {
	OutPrecision  truth.Precision
	BothPrecision truth.Precision
	OutTime       time.Duration
	BothTime      time.Duration
}

// AblationContext runs the comparison on versions 7 and 8 of the EFO-like
// dataset (the bulk prefix migration).
func (e *Env) AblationContext() *AblationContextResult {
	d := e.EFO()
	i, j := 6, 7
	if len(d.Graphs) < 8 {
		i, j = 0, len(d.Graphs)-1
	}
	c := rdf.Union(d.Graphs[i], d.Graphs[j])
	tr := d.GroundTruth(i, j)
	out := &AblationContextResult{}

	start := time.Now()
	outP, _, _ := (&core.Engine{}).Hybrid(c, core.NewInterner())
	out.OutTime = time.Since(start)
	out.OutPrecision = truth.Classify(c, core.NewAlignment(c, outP).MatchesOf, tr)

	start = time.Now()
	bothP, _, _ := (&core.Engine{Opt: core.RefineOptions{Direction: core.DirBoth}}).Hybrid(c, core.NewInterner())
	out.BothTime = time.Since(start)
	out.BothPrecision = truth.Classify(c, core.NewAlignment(c, bothP).MatchesOf, tr)
	return out
}

// String renders the ablation.
func (r *AblationContextResult) String() string {
	row := func(name string, p truth.Precision, t time.Duration) []string {
		return []string{name, itoa(p.Exact), itoa(p.Inclusive), itoa(p.False), itoa(p.Missing), t.String()}
	}
	return renderTable("Ablation: contents-only vs context-aware hybrid (EFO prefix-migration pair)",
		[]string{"variant", "exact", "inclusive", "false", "missing", "time"},
		[][]string{
			row("out (paper)", r.OutPrecision, r.OutTime),
			row("out+in (§6)", r.BothPrecision, r.BothTime),
		})
}

// AblationRefinement measures both solvers on a graph large enough for the
// naive solver's O(n²·deg²) cost to separate from the refinement engine.
func (e *Env) AblationRefinement() *AblationRefinementResult {
	d, err := efoTiny(e.Cfg.Seed+1, 0.03)
	if err != nil {
		panic(err)
	}
	g := d[0]
	out := &AblationRefinementResult{Nodes: g.NumNodes(), Triples: g.NumTriples()}

	start := time.Now()
	in := core.NewInterner()
	p, _, _ := (&core.Engine{}).Bisim(g, in)
	out.RefineTime = time.Since(start)

	start = time.Now()
	naive := core.NaiveMaximalBisimulation(g)
	out.NaiveTime = time.Since(start)

	out.Agree = core.FromPartition(p).Equal(naive)
	return out
}

// String renders the ablation.
func (r *AblationRefinementResult) String() string {
	return renderTable("Ablation: refinement engine vs naive bisimulation fixpoint",
		[]string{"metric", "value"},
		[][]string{
			{"nodes", itoa(r.Nodes)},
			{"triples", itoa(r.Triples)},
			{"refinement wall-clock", r.RefineTime.String()},
			{"naive wall-clock", r.NaiveTime.String()},
			{"partitions agree", fmt.Sprintf("%v", r.Agree)},
		})
}
