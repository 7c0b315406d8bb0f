// Command rdfalign aligns two RDF graphs given as N-Triples files:
//
//	rdfalign -method overlap [-theta 0.65] [-pairs] source.nt target.nt
//
// It prints dataset statistics, alignment statistics (aligned entities,
// aligned-edge ratio) and, with -pairs, every aligned URI pair. The
// refinement extensions are reachable as flags: -context characterises
// nodes by incoming edges too, -adaptive fixes predicate-only URI
// misalignments, -keys restricts refinement to a predicate key set.
// -max-depth k switches to bounded-depth k-bisimulation: every refinement
// fixpoint is capped at k rounds, trading alignment precision for speed
// (0 = exact).
// -timeout bounds the run through context cancellation, -progress streams
// per-round progress to stderr, and -workers parallelises the matching
// phases of -method overlap (bit-identical output for every worker count;
// refinement is sequential).
// Input files are streamed through the parallel N-Triples pipeline
// (-parse-workers, default all cores; the parsed graph is bit-identical
// for every worker count); -strict tightens the accepted N-Triples
// dialect.
//
// Binary snapshots skip parsing entirely: -save-snapshot writes
// <input>.snap next to each parsed input, -load-snapshot prefers an
// existing <input>.snap over reparsing, and inputs named *.snap are
// always loaded as snapshots. `rdfalign -snapshot-info file.snap`
// prints the file's layout (verifying every section CRC) and exits.
//
// -storage disk switches the run to out-of-core mode for graphs that
// crowd RAM: input graphs are served zero-copy from mmap-native
// snapshots, the alignment working set lives in mmap-backed scratch
// files, and large refinement rounds group their signatures by external
// merge sort in -storage-dir. Output is byte-identical to -storage mem;
// only the memory residency changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"rdfalign"
)

func main() {
	method := flag.String("method", "hybrid", "alignment method: trivial, deblank, hybrid, overlap, sigmaedit")
	theta := flag.Float64("theta", 0.65, "similarity threshold θ for overlap/sigmaedit")
	contextual := flag.Bool("context", false, "characterise nodes by incoming edges as well as contents (§3.3/§6)")
	adaptive := flag.Bool("adaptive", false, "characterise predicate-only URIs by their occurrences (§5.1)")
	keys := flag.String("keys", "", "comma-separated predicate URIs restricting refinement (graph keys, §6)")
	maxDepth := flag.Int("max-depth", 0, "bound every refinement fixpoint at k rounds (bounded-depth k-bisimulation; 0 = exact unbounded alignment)")
	timeout := flag.Duration("timeout", 0, "abort the alignment after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "stream per-round progress to stderr")
	workers := flag.Int("workers", 0, "overlap-matching workers; other methods and refinement are sequential (0 or 1 = sequential, -1 = all cores)")
	parseWorkers := flag.Int("parse-workers", -1, "parallel parse workers (0 or 1 = sequential, -1 = all cores)")
	strict := flag.Bool("strict", false, "reject lax N-Triples (raw control characters, invalid UTF-8, nonstandard blank labels)")
	pairs := flag.Bool("pairs", false, "print every aligned URI pair")
	unaligned := flag.Bool("unaligned", false, "print unaligned URIs per side")
	deltaFlag := flag.Bool("delta", false, "print the change description (retained/removed/added triples)")
	applyDelta := flag.String("apply-delta", "", "after aligning, apply the edit script FILE to the target and print the maintained post-delta alignment stats")
	applyDeltaScratch := flag.String("apply-delta-scratch", "", "after aligning, apply the edit script FILE to the target and print the stats of a from-scratch re-alignment (same output format as -apply-delta)")
	saveSnapshot := flag.Bool("save-snapshot", false, "after parsing each input, write a binary snapshot next to it as <input>.snap (mapped zero-copy by -storage disk)")
	loadSnapshot := flag.Bool("load-snapshot", false, "load <input>.snap instead of parsing when it exists")
	snapshotInfo := flag.String("snapshot-info", "", "print the layout of a snapshot file (verifying all CRCs) and exit")
	storageMode := flag.String("storage", "mem", "working-set storage: mem (Go heap) or disk (input graphs served from mapped snapshots, alignment arrays in mmap-backed scratch files, signature grouping spilled by external merge)")
	storageDir := flag.String("storage-dir", "", "directory for -storage disk scratch and spill files (default: the system temp directory)")
	flag.Parse()
	if *snapshotInfo != "" {
		h, err := rdfalign.OpenSnapshot(*snapshotInfo)
		if err != nil {
			fatal(err)
		}
		fmt.Println(h.Info())
		h.Close()
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: rdfalign [flags] source.nt target.nt")
		flag.Usage()
		os.Exit(2)
	}

	m, err := rdfalign.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	var popts []rdfalign.ParseOption
	if *parseWorkers != 0 {
		popts = append(popts, rdfalign.WithParseWorkers(*parseWorkers))
	}
	if *strict {
		popts = append(popts, rdfalign.WithStrictMode())
	}
	disk := false
	switch *storageMode {
	case "mem":
	case "disk":
		disk = true
	default:
		fatal(fmt.Errorf("unknown -storage mode %q (want mem or disk)", *storageMode))
	}
	lopts := loadOptions{parse: popts, preferSnapshot: *loadSnapshot, saveSnapshot: *saveSnapshot, disk: disk, diskDir: *storageDir}
	g1 := load(flag.Arg(0), "source", lopts)
	g2 := load(flag.Arg(1), "target", lopts)
	printGraphStats("source", g1)
	printGraphStats("target", g2)

	opts := []rdfalign.Option{rdfalign.WithMethod(m), rdfalign.WithTheta(*theta)}
	if disk {
		opts = append(opts, rdfalign.WithStorage(rdfalign.OutOfCore(*storageDir)))
	}
	if *contextual {
		opts = append(opts, rdfalign.WithContextual())
	}
	if *adaptive {
		opts = append(opts, rdfalign.WithAdaptive())
	}
	if *keys != "" {
		opts = append(opts, rdfalign.WithKeyPredicates(strings.Split(*keys, ",")...))
	}
	if *maxDepth != 0 {
		// Negative values flow through so NewAligner reports them.
		opts = append(opts, rdfalign.WithMaxDepth(*maxDepth))
	}
	// WithParallelism treats non-positive values as "use GOMAXPROCS", so
	// the documented "0 = sequential" semantics require skipping the option
	// entirely for 0 and 1; only an explicitly negative value asks for all
	// cores.
	if *workers > 1 || *workers < 0 {
		opts = append(opts, rdfalign.WithParallelism(*workers))
	}
	if *progress {
		opts = append(opts, rdfalign.WithProgress(func(p rdfalign.Progress) {
			fmt.Fprintf(os.Stderr, "rdfalign: %s round %d\n", p.Stage, p.Round)
		}))
	}
	al, err := rdfalign.NewAligner(opts...)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	a, err := al.Align(ctx, g1, g2)
	if err != nil {
		fatal(err)
	}
	printAlignStats(a)

	// -apply-delta maintains the alignment through the session machinery;
	// -apply-delta-scratch edits the target and re-aligns from scratch. Both
	// print the same "after delta" block, so diffing the outputs of the two
	// modes verifies the maintenance path end to end.
	if *applyDelta != "" && *applyDeltaScratch != "" {
		fatal(fmt.Errorf("-apply-delta and -apply-delta-scratch are mutually exclusive"))
	}
	if path := *applyDelta; path != "" {
		s := loadScript(path)
		a2, err := a.ApplyDelta(ctx, s)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("after delta: %s\n", rdfalign.GatherStats(a2.Target()))
		printAlignStats(a2)
		a = a2
		g2 = a2.Target()
	}
	if path := *applyDeltaScratch; path != "" {
		s := loadScript(path)
		edited, err := rdfalign.ApplyEditScript(g2, s)
		if err != nil {
			fatal(err)
		}
		a2, err := al.Align(ctx, g1, edited)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("after delta: %s\n", rdfalign.GatherStats(a2.Target()))
		printAlignStats(a2)
		a = a2
		g2 = edited
	}

	if *pairs {
		g2g := g2
		a.Pairs(func(n1, n2 rdfalign.NodeID) {
			if g1.IsURI(n1) && g2g.IsURI(n2) {
				fmt.Printf("%s\t%s\n", g1.Label(n1).Value, g2g.Label(n2).Value)
			}
		})
	}
	if *unaligned {
		src, tgt := a.Unaligned()
		for _, n := range src {
			if g1.IsURI(n) {
				fmt.Printf("unaligned-source\t%s\n", g1.Label(n).Value)
			}
		}
		for _, n := range tgt {
			if g2.IsURI(n) {
				fmt.Printf("unaligned-target\t%s\n", g2.Label(n).Value)
			}
		}
	}
	if *deltaFlag {
		if m == rdfalign.SigmaEdit {
			fmt.Fprintln(os.Stderr, "rdfalign: -delta is not defined for sigmaedit")
			os.Exit(1)
		}
		fmt.Print(rdfalign.FormatDelta(a, rdfalign.ComputeDelta(a)))
	}
}

// printGraphStats prints an input's stats line under its role: Stats leads
// with a graph's name, which for a graph loaded from a snapshot is the name
// it was saved under.
func printGraphStats(role string, g *rdfalign.Graph) {
	st := rdfalign.GatherStats(g)
	st.Name = role
	fmt.Println(st)
}

// printAlignStats prints the alignment stat block; -apply-delta and
// -apply-delta-scratch must produce byte-identical blocks for the same
// post-delta state, so both funnel through here.
func printAlignStats(a *rdfalign.Alignment) {
	st := a.EdgeStats()
	fmt.Printf("method=%s theta=%.2f\n", a.Method, a.Theta)
	fmt.Printf("aligned entities (all): %d\n", a.AlignedEntityCount(false))
	fmt.Printf("aligned entities (URI): %d\n", a.AlignedEntityCount(true))
	fmt.Printf("aligned-edge ratio: %.4f (%d of %d signatures)\n", st.Ratio(), st.Common, st.Union)
}

// loadScript reads an edit script file.
func loadScript(path string) *rdfalign.EditScript {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, err := rdfalign.ParseEditScript(f)
	if err != nil {
		fatal(err)
	}
	return s
}

type loadOptions struct {
	parse          []rdfalign.ParseOption
	preferSnapshot bool   // load <path>.snap instead of parsing when present
	saveSnapshot   bool   // write <path>.snap after parsing
	disk           bool   // -storage disk: serve graphs from mapped snapshots
	diskDir        string // scratch directory for disk mode ("" = temp dir)
}

// loadSnapshot opens a snapshot of either kind and returns a graph: the
// graph itself, or — for an archive snapshot — its newest version, so
// aligning against an archive means aligning against where it left off.
func loadSnapshot(path string) (*rdfalign.Graph, error) {
	h, err := rdfalign.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	if h.IsArchive() {
		fmt.Fprintf(os.Stderr, "rdfalign: %s is an archive snapshot; using newest version %d\n", path, h.Versions()-1)
	}
	return h.Version(h.Versions() - 1)
}

// load reads an RDF file, picking the parser by extension: .snap is a
// binary snapshot (graph, or archive — then the newest version),
// .ttl/.turtle is Turtle, everything else N-Triples (streamed through the
// parallel pipeline with the given parse options). With preferSnapshot,
// an existing <path>.snap sidecar is loaded instead of reparsing; with
// saveSnapshot, that sidecar is written after parsing.
func load(path, role string, opts loadOptions) *rdfalign.Graph {
	if strings.HasSuffix(path, ".snap") {
		if opts.disk {
			// Zero-copy for graph snapshots; archive snapshots fall
			// through to the heap loader below.
			if g, err := rdfalign.OpenGraphSnapshotMapped(path); err == nil {
				return g
			}
		}
		g, err := loadSnapshot(path)
		if err != nil {
			fatal(err)
		}
		return g
	}
	snapPath := path + ".snap"
	if opts.preferSnapshot {
		if opts.disk {
			if g, err := rdfalign.OpenGraphSnapshotMapped(snapPath); err == nil {
				return g
			}
		}
		if g, err := loadSnapshot(snapPath); err == nil {
			return g
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var g *rdfalign.Graph
	if strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle") {
		g, err = rdfalign.ParseTurtle(f, role)
	} else {
		g, err = rdfalign.ParseNTriples(f, role, opts.parse...)
	}
	if err != nil {
		fatal(err)
	}
	if opts.saveSnapshot {
		if err := rdfalign.WriteGraphSnapshotMappedFile(snapPath, g); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rdfalign: wrote snapshot %s\n", snapPath)
	}
	if opts.disk {
		return remapDisk(g, opts.diskDir)
	}
	return g
}

// remapDisk moves a freshly parsed graph out of the Go heap: it writes the
// graph as an mmap-native snapshot in the disk-mode scratch directory,
// reopens it mapped, and deletes the file (the mapping keeps the data
// reachable). The heap copy becomes garbage; from here on the graph's
// columns cost page-cache residency, not heap. On platforms without mmap
// the reopen decodes back to the heap and the round-trip is a no-op.
func remapDisk(g *rdfalign.Graph, dir string) *rdfalign.Graph {
	f, err := os.CreateTemp(dir, "rdfalign-graph-*.snap")
	if err != nil {
		fatal(err)
	}
	path := f.Name()
	f.Close()
	if err := rdfalign.WriteGraphSnapshotMappedFile(path, g); err != nil {
		fatal(err)
	}
	mg, err := rdfalign.OpenGraphSnapshotMapped(path)
	if err != nil {
		fatal(err)
	}
	os.Remove(path)
	return mg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdfalign:", err)
	os.Exit(1)
}
