// Package rdfalign aligns two versions of an evolving RDF graph — it
// identifies the node pairs that represent the same real-world entity —
// implementing Buneman & Staworko, "RDF Graph Alignment with Bisimulation",
// PVLDB 9(12), 2016 (DOI 10.14778/2994509.2994531).
//
// # The problem
//
// Two RDF versions of the same database cannot be aligned by comparing URIs
// alone: blank nodes have no persistent identity, naming schemes change
// ("ontology change"), and both data values and graph structure drift
// between versions. The paper's methods recover node identity from a node's
// *contents* — the labels and structure reachable through its outgoing
// edges:
//
//   - Trivial: label equality on non-blank nodes (the baseline),
//   - Deblank: bisimulation partition refinement over blank nodes, which
//     characterises each blank node by its contents,
//   - Hybrid: blanks out unaligned non-literal nodes and refines again, so
//     renamed URIs align by content,
//   - Overlap: a weighted-partition approximation of the edit-distance
//     similarity σEdit, built with an inverted-index overlap heuristic;
//     robust to small edits in values and structure, and scalable,
//   - SigmaEdit: the exact σEdit similarity (string edit distance on
//     literals, Hungarian-matched graph edit distance on non-literals,
//     propagated to a fixpoint) — the expensive reference the Overlap
//     method approximates (soundness: Theorem 1).
//
// # Quick start
//
// An Aligner is a reusable session: configure it once with functional
// options, then align any number of graph pairs under a context. Every
// long-running fixpoint checks the context once per round, so a cancelled
// or expired context aborts the alignment promptly with ctx.Err(); the
// optional progress hook observes each round as it completes.
//
//	g1, _ := rdfalign.ParseNTriples(f1, "v1")
//	g2, _ := rdfalign.ParseNTriples(f2, "v2")
//	al, _ := rdfalign.NewAligner(
//		rdfalign.WithMethod(rdfalign.Overlap),
//		rdfalign.WithTheta(0.65),
//		rdfalign.WithProgress(func(p rdfalign.Progress) {
//			log.Printf("%s round %d", p.Stage, p.Round)
//		}),
//	)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	a, err := al.Align(ctx, g1, g2)
//	if err != nil { // includes ctx.Err() on cancellation
//		log.Fatal(err)
//	}
//	a.Pairs(func(n1, n2 rdfalign.NodeID) {
//		fmt.Println(g1.Label(n1), "≈", g2.Label(n2))
//	})
//
// Every result implements the Relation interface
// (Aligned/Distance/MatchesOf/Pairs/Unaligned/AlignedEntityCount), whether
// it is backed by a partition (Trivial, Deblank, Hybrid, Overlap) or by the
// σEdit distance (SigmaEdit), so callers treat all methods uniformly.
//
// For the partition methods the relation is the partition alignment
// itself. Aligned and Distance compare two nodes' colors. Every per-class
// query — MatchesOf, Pairs, Unaligned, AlignedEntityCount, and the
// archive's entity chaining — reads one class table: a single counting
// pass over the partition's colors that lists each class's members in
// ascending node order, sources first. The table is built on the first
// such query, never by Align or ApplyDelta, and is indexed by color up to
// the largest color the partition uses. SigmaEdit's unaligned sets are
// those of its hybrid base partition, read from that partition's table.
//
// NewAligner is the single entry point; the pre-session Options struct
// and the package-level Align and BuildArchive wrappers have been removed.
// Aligner.With derives a new session from an existing one (base options
// plus overrides), which is how the server attaches per-job progress hooks
// without re-stating the configuration.
//
// # Maintenance
//
// An Alignment is the head of a session lineage: when the target graph
// evolves, Alignment.ApplyDelta applies an EditScript (insert/delete triple
// lines, parsed by ParseEditScript) to the target and maintains the
// alignment instead of recomputing it. The session keeps its interner,
// matcher caches and a transactional editor alive across deltas, keeps
// each post-edit graph as the previous version's indexes plus a small edge
// overlay, and re-refines only the edit's dirty frontier, so a delta costs
// roughly in proportion to its churn rather than to the graph. The result is
// bit-identical to a from-scratch Align against ApplyEditScript(g2, s) —
// property-tested — and transactional: a failed or cancelled ApplyDelta
// leaves the session untouched, and applying a delta to a superseded
// Alignment fails with ErrStaleAlignment.
//
// # Archives
//
// An Archive records aligned pairs; it computes no alignment itself. Its
// first version starts it, and every later version is appended from the
// consecutive pair (newest archived graph, new version) and a partition of
// their union: nodes in a mutual one-to-one class continue an entity, the
// rest start fresh ones. Aligner.BuildArchive and Aligner.AppendVersion
// align each pair with the session pipeline (Overlap for an Overlap
// session, Hybrid otherwise), so an append costs one pair alignment
// whatever the archive's length, raw-identical to a full rebuild.
// Aligner.AppendAlignment appends the target of an alignment the caller
// already has: a fresh Hybrid, Overlap or SigmaEdit alignment over the
// newest archived graph is recorded as it is, without aligning again;
// any other alignment falls back to aligning the tail pair.
//
// # Performance
//
// Every refinement fixpoint runs on an incremental worklist engine
// (internal/core): each round recolors only the nodes whose neighbourhood
// changed in the previous round, found through a lazily built
// reverse-dependency adjacency, and stabilisation is decided from the
// round's change list. The result is identical — color for color — to
// exhaustive recoloring, but the per-round cost is proportional to the
// work actually remaining; on graphs where most nodes stabilise early the
// engine is one to two orders of magnitude faster (see BENCH_refine.json).
//
// Refinement colors are interned by hash: each recolor's canonical
// (previous color, pair list) signature is hashed directly off the pair
// slices — no byte-key serialisation — and resolved through an
// open-addressed table that falls back to structural comparison on hash
// collision, so collisions cost a comparison, never a wrong answer.
// Colorings are bit-identical across hash seeds (property-tested).
// Refinement is sequential: a parallel gather-and-intern round lost to the
// sequential worklist at two cores, so WithParallelism applies only to the
// Overlap method's matching scans. The extended characterisations
// (WithContextual, WithAdaptive, WithKeyPredicates) read inbound and
// predicate-occurrence neighbourhoods as well, so for them the worklist's
// frontier widens to every node sharing a triple with a changed node.
//
// The Overlap method's matching phases (Algorithm 2) scale three ways.
// Algorithm 1 probes the inverted index with only the minimal lossless
// prefix of each characterisation's least frequent objects, not the
// paper's ⌈kθ⌉ — a deliberate departure that changes no output, since the
// candidates the longer prefix adds all fail the overlap screen, and that
// screens an order of magnitude fewer candidates at θ = 0.65.
// WithParallelism fans the matching scans out across workers: candidates
// are generated from a shared read-only inverted index and each worker
// verifies its own chunks of source nodes, with the chunks' edges merged
// in source order — the discovered pairs, and therefore the final
// colorings and weights, are bit-identical for every worker count. The
// parallel parse, the parallel write and the matching scans share one
// ordered worker pool (internal/par): results are committed in input
// order, at most 2·workers+4 items are in flight, and the first error in
// input order wins. And the per-round
// non-literal match is incremental: the
// inverted index and the characterisation/σNL caches survive across rounds
// and are repaired from the nodes Enrich and Propagate actually moved
// (core.Engine.Propagate returns the worklist's change lists)
// instead of being rebuilt while the unaligned sets only shrink —
// oracle-tested against a from-scratch rebuild every round. Component
// enrichment runs a heap-based Dijkstra, so a pathologically large
// component of near-duplicate literals no longer costs O(|component|³).
// Cancellation latency inside a matching scan is bounded per candidate
// batch, not per source node.
//
// Thresholds follow one convention everywhere: Align_θ is inclusive
// (σ(n, m) ≤ θ, §4.1), and every θ-taking option accepts (0, 1] with the
// zero value selecting the paper's 0.65 default.
//
// # Bounded-depth alignment
//
// WithMaxDepth(k) caps every refinement fixpoint — partition refinement,
// weighted enrich/propagate, σEdit propagation — at exactly k applied
// rounds: bounded-depth k-bisimulation. Nodes then share a class iff they
// are indistinguishable by outbound paths of length at most k, a strictly
// coarser alignment that trades ambiguity beyond depth k for a fraction
// of the exact fixpoint's cost on deep graphs. Each counted round is
// exactly the partition a full recoloring would produce, so the
// bit-identity guarantee holds per bound: for every k the colorings are
// identical across hash seeds (oracle- and property-tested), a fixpoint
// that stabilises before round k is unaffected, and a k-bounded ApplyDelta
// equals a k-bounded from-scratch re-alignment. On the CLI the bound is -max-depth; the
// server answers per-query ?depth=k from cached per-k alignments.
//
// # Ingestion
//
// N-Triples input streams through one chunked pipeline at every worker
// count: the input is split into ~256 KB blocks on line boundaries, the
// ordered worker pool lexes blocks into per-block triple batches (no
// per-line allocations; zero-copy blocks when parsing from a string), and
// the batches are merged in block order, so NodeID assignment — and
// therefore the resulting Graph — is bit-identical for every worker count.
// One worker runs the pool inline:
//
//	g, err := rdfalign.ParseNTriples(f, "v1",
//		rdfalign.WithParseWorkers(8), // -1 = all cores, 0/1 = one, inline
//		rdfalign.WithStrictMode())    // reject raw controls, invalid UTF-8
//
// Syntax errors report global 1-based line numbers (the first error in
// document order) regardless of worker count. WriteNTriples mirrors the
// pipeline with a parallel formatting fast path (WithWriteWorkers): the
// same pool formats 16,384-triple chunks and writes them in chunk order,
// so the output is byte-identical to the sequential writer, canonical (parsing
// the output and re-serialising reproduces it exactly) and
// byte-preserving (labels round-trip at the byte level, including
// invalid UTF-8 a lax parse admitted). Fuzz targets and golden files
// under internal/rdf pin all three guarantees.
//
// Parsing can be skipped entirely on re-ingestion:
// WriteGraphSnapshotMappedFile serialises a graph to a versioned columnar
// binary format (the term dictionary, triple columns and both adjacency
// CSRs as fixed-width arrays) whose columns every reader serves in place,
// without decoding or rebuilding anything: OpenGraphSnapshotMapped from a
// file mapping, OpenSnapshot from the one heap copy of the graph section
// that its CRC check read —
// node-ID- and triple-identical to the graph written, ≥5× faster than the
// parallel parse of the same data. WriteArchiveSnapshotFile serialises a
// multi-version Archive as its entity and row columns, from which
// OpenSnapshot reconstructs the archive and every version. Writes are
// crash-safe: a snapshot is written to a temporary file and renamed over
// its path, so a failed write leaves the previous file intact and a graph
// mapped from it keeps answering. Every section a reader uses is
// CRC-checked — by OpenSnapshot once, every section, before the graph or
// archive is decoded from the verified bytes; a damaged or truncated
// file fails loudly with an error
// wrapping ErrSnapshotCorrupt that carries the byte offset. FuzzReadGraph
// (which also runs the inspection behind OpenSnapshot) and
// FuzzOpenGraphMapped pin the never-panic/never-over-allocate guarantee;
// see the internal/snapshot package for the format layout and the
// compatibility policy.
//
// # Storage
//
// Backing memory for the alignment working set is pluggable. The Storage
// interface is an append-only allocation arena behind the Aligner: it
// hands out the union graph's columns, the partition color arrays and the
// interner's entry table and signature pair lists. InMemory (the default)
// allocates from the Go heap and needs no cleanup. OutOfCore(dir)
// allocates from mmap-backed scratch files created unlinked in dir — the
// working set then lives outside the Go heap, where GOMEMLIMIT does not
// count it and the kernel pages it out under memory pressure — and
// additionally switches deblank refinement rounds with large dirty
// frontiers to sequential scans with external-merge signature grouping,
// so the fixpoint's transient state spills to sorted runs on disk instead
// of a heap hash table. Select it per session:
//
//	st := rdfalign.OutOfCore(scratch)
//	defer st.Close() // releases every mapping; results stay valid until then
//	al, _ := rdfalign.NewAligner(rdfalign.WithStorage(st))
//
// The backend contract extends the bit-identity guarantee: colorings,
// iteration counts and all derived results are identical — color for
// color — across storage backends and hash seeds
// (property-tested). A Storage must return zeroed, non-overlapping,
// arbitrarily long-lived allocations; it is not safe for use by two
// concurrent alignments, and its memory is reclaimed by Close (or, for
// the unlinked scratch files, at process exit at the latest), never by
// the garbage collector. On platforms without mmap OutOfCore degrades to
// heap allocation, so code selecting it stays portable. The companion
// load path is OpenGraphSnapshotMapped, which serves a graph's columns
// zero-copy from a mapped snapshot file in O(1) heap; cmd/rdfalign
// -storage disk wires both together, keeping graphs and working set
// off-heap end to end.
//
// # Service
//
// cmd/rdfalignd serves resident archives over HTTP — alignment as a
// service. Archives load from binary snapshots at startup (-archive
// name=path) or via PUT, stay in memory, and answer the relation
// endpoints (aligned, distance, matches, resolve-across-versions, stats,
// versions) concurrently from an immutable, atomically-published head, so
// readers never observe a torn state. New versions (POST
// /archives/{name}/versions, N-Triples or graph snapshot body) and edit
// scripts (POST /archives/{name}/deltas) align asynchronously through the
// session API — ApplyDelta maintenance for deltas, a fresh pair alignment
// for uploads, which the archive records without aligning it again — with
// per-job progress at /jobs/{id} and cancellation via
// DELETE. The worker budget is split into two disjoint pools
// (-query-workers, -align-jobs): a long-running alignment can never
// starve the query path. A delta submitted against a version that was
// superseded before the job ran fails with HTTP 409 — the session API's
// ErrStaleAlignment surfaced over the wire (Alignment.Stale is the
// in-process equivalent). Jobs end done, failed, canceled or timeout
// (context errors are classified with errors.Is, so wrapped cancellations
// count as canceled); terminal jobs are retained per archive up to
// -job-history and then evicted. The relation endpoints accept ?depth=k
// for bounded-depth answers served from per-head per-k caches. See
// internal/server and the README's "Running the server" section for the
// endpoint table and curl examples.
//
// The package also ships the paper's complete evaluation apparatus:
// deterministic generators for the three datasets of Section 5 (an EFO-like
// ontology, a GtoPdb-like relational database exported through the W3C
// Direct Mapping, and a DBpedia-like category graph), ground-truth
// bookkeeping, and the precision metrics of Figure 14. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduced figures.
package rdfalign
