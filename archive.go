package rdfalign

import (
	"context"

	"rdfalign/internal/archive"
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
// configuration: consecutive versions are aligned with the session's
// refinement extensions (WithContextual, WithAdaptive, WithKeyPredicates)
// and depth bound (WithMaxDepth), and, when the method is Overlap, its
// Overlap settings and matching parallelism (the hybrid partition
// otherwise); WithResolveAmbiguous carries over. The context is checked
// before each version pair and inside every alignment fixpoint; the
// session's progress observer additionally receives one "archive" event
// per archived version (Round = 1-based version, Total = version count).
func (al *Aligner) BuildArchive(ctx context.Context, graphs []*Graph) (*Archive, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return archive.Build(graphs, al.archiveOptions(ctx))
}

func (al *Aligner) archiveOptions(ctx context.Context) archive.BuildOptions {
	return archive.BuildOptions{
		UseOverlap:       al.cfg.method == Overlap,
		ResolveAmbiguous: al.cfg.resolveAmbiguous,
		Theta:            al.cfg.theta,
		Epsilon:          al.cfg.epsilon,
		Engine:           *al.engine(ctx),
		Workers:          al.cfg.workers,
	}
}

// AppendVersion extends an archive built by this session with one more
// version: either the graph g, or — when g is nil — the newest archived
// version edited by the script. Only the new consecutive pair is aligned, so
// the cost is one alignment regardless of the archive's length, and the
// result is identical to rebuilding the archive over the extended history.
// On any error (a script that does not apply, cancellation) the archive is
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
