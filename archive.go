package rdfalign

import (
	"context"

	"rdfalign/internal/archive"
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// The compact multi-version representation the paper proposes as future
// work (§6): triples decorated with version intervals, over entities
// chained through the alignments. See internal/archive for details.
type (
	// Archive stores a sequence of graph versions compactly and can
	// reconstruct any version exactly.
	Archive = archive.Archive
	// ArchiveStats summarises an archive, including the §6
	// enter/leave-with-subject coupling measurements.
	ArchiveStats = archive.Stats
)

// BuildArchive archives a sequence of graph versions under the session's
// configuration. Consecutive versions are aligned by Align's pipeline with
// the Overlap method when the session's method is Overlap and Hybrid
// otherwise, under the session's extensions, depth bound, Overlap settings
// and parallelism; WithResolveAmbiguous carries over. WithStorage does not
// apply: a storage is an arena that per-version pairs would grow without
// bound. The context is checked before each version pair and inside every
// alignment fixpoint; the session's progress observer additionally receives
// one "archive" event per archived version (Round = 1-based version, Total
// = version count).
func (al *Aligner) BuildArchive(ctx context.Context, graphs []*Graph) (*Archive, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return archive.Build(graphs, al.archiveOptions(ctx))
}

// archiveOptions aligns the archive's pairs through pipeline, on the heap,
// keeping no session state and building no relation.
func (al *Aligner) archiveOptions(ctx context.Context) archive.BuildOptions {
	eng := al.engine(ctx)
	method := Hybrid
	if al.cfg.method == Overlap {
		method = Overlap
	}
	return archive.BuildOptions{
		ResolveAmbiguous: al.cfg.resolveAmbiguous,
		Hooks:            eng.Hooks,
		Align: func(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error) {
			c := rdf.Union(g1, g2)
			pairEng := *eng
			pairEng.Work = core.NewWorkspace()
			s, err := al.pipeline(&pairEng, method, c, core.NewInterner(), nil)
			return s.part, c, err
		},
	}
}

// AppendVersion extends an archive built by this session with one more
// version: either the graph g, or — when g is nil — the newest archived
// version edited by the script. Only the new consecutive pair is aligned,
// as in BuildArchive (Overlap or Hybrid; WithStorage does not apply), so the
// cost is one alignment regardless of the archive's length, and the result
// is identical to rebuilding the archive over the extended history. On any
// error (a script that does not apply, cancellation) the archive is
// unchanged. The session's options must match the ones the archive was
// built with; see archive.Archive.AppendVersion.
func (al *Aligner) AppendVersion(ctx context.Context, a *Archive, g *Graph, s *EditScript) (*Graph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.AppendVersion(g, s, al.archiveOptions(ctx))
}
