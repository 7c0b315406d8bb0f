package rdfalign

import (
	"context"
	"errors"
	"fmt"

	"rdfalign/internal/archive"
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// The compact multi-version representation the paper proposes as future
// work (§6): triples decorated with version intervals, over entities
// chained through the alignments. The archive records aligned pairs; the
// session aligns them. See internal/archive for details.
type (
	// Archive stores a sequence of graph versions compactly and can
	// reconstruct any version exactly.
	Archive = archive.Archive
	// ArchiveStats summarises an archive, including the §6
	// enter/leave-with-subject coupling measurements.
	ArchiveStats = archive.Stats
)

// BuildArchive archives a sequence of graph versions under the session's
// configuration: the first version starts the archive, and each later one
// is appended from its pair with the version before, aligned by Align's
// pipeline with the Overlap method when the session's method is Overlap
// and Hybrid otherwise, under the session's extensions, depth bound,
// Overlap settings and parallelism; WithResolveAmbiguous carries over.
// WithStorage does not apply: a storage is an arena that per-version pairs
// would grow without bound. The context is checked before each version
// pair and inside every alignment fixpoint; the session's progress
// observer additionally receives one "archive" event per archived version
// (Round = 1-based version, Total = version count).
func (al *Aligner) BuildArchive(ctx context.Context, graphs []*Graph) (*Archive, error) {
	if len(graphs) == 0 {
		return nil, errors.New("rdfalign: BuildArchive needs at least one version")
	}
	eng := al.engine(ctx)
	if err := eng.Hooks.Err(); err != nil {
		return nil, err
	}
	arch := archive.New(graphs[0])
	eng.Hooks.Round(core.StageArchive, 1, len(graphs))
	for v, g := range graphs[1:] {
		if err := al.appendPair(eng, arch, g); err != nil {
			return nil, err
		}
		eng.Hooks.Round(core.StageArchive, v+2, len(graphs))
	}
	return arch, nil
}

// appendPair aligns the archive's newest graph with g through pipeline —
// Overlap for an Overlap session, Hybrid otherwise — on the heap, keeping
// no session state and building no relation, and appends g. It checks the
// engine's context first; a nil context never cancels.
func (al *Aligner) appendPair(eng *core.Engine, arch *Archive, g *Graph) error {
	if err := eng.Hooks.Err(); err != nil {
		return err
	}
	latest := arch.LatestGraph()
	if latest == nil {
		return errors.New("rdfalign: archive has no construction tail (loaded from a snapshot); call RebuildTail to append")
	}
	method := Hybrid
	if al.cfg.method == Overlap {
		method = Overlap
	}
	c := rdf.Union(latest, g)
	pairEng := *eng
	pairEng.Work = core.NewWorkspace()
	s, err := al.pipeline(&pairEng, method, c, core.NewInterner(), nil)
	if err != nil {
		return err
	}
	return arch.Append(c, s.part, al.cfg.resolveAmbiguous)
}

// AppendVersion extends an archive built by this session with one more
// version: either the graph g, or — when g is nil — the newest archived
// version edited by the script (ApplyEditScript). Only the new consecutive
// pair is aligned, as in BuildArchive (Overlap or Hybrid; WithStorage does
// not apply), so the cost is one alignment regardless of the archive's
// length, and the result is identical to rebuilding the archive over the
// extended history. On any error (a script that does not apply,
// cancellation, an archive loaded from a snapshot whose tail was not
// rebuilt) the archive is unchanged. The session's options must match the
// ones the archive was built with: chaining depends on how the pairs were
// aligned. It returns the appended version's graph.
func (al *Aligner) AppendVersion(ctx context.Context, a *Archive, g *Graph, s *EditScript) (*Graph, error) {
	eng := al.engine(ctx)
	if err := eng.Hooks.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		if s == nil || a.LatestGraph() == nil {
			return nil, errors.New("rdfalign: AppendVersion needs a graph, or an edit script and an archive with a construction tail")
		}
		var err error
		if g, err = ApplyEditScript(a.LatestGraph(), s); err != nil {
			return nil, fmt.Errorf("rdfalign: append version: %w", err)
		}
	}
	if err := al.appendPair(eng, a, g); err != nil {
		return nil, err
	}
	eng.Hooks.Round(core.StageArchive, a.Versions(), a.Versions())
	return g, nil
}

// AppendAlignment extends an archive built by this session with the target
// of an aligned pair, with the same result as AppendVersion(ctx, arch,
// a.Target(), nil). When a is a fresh Align result of this session (not
// advanced by ApplyDelta, not under WithStorage) over the archive's newest
// graph, and the method is Hybrid, Overlap or SigmaEdit, a's partition is
// the one BuildArchive would compute for the pair (for SigmaEdit its hybrid
// base), so it is recorded without aligning again. Otherwise the pair
// (newest archived graph, a.Target()) is aligned as AppendVersion does.
// On any error the archive is unchanged.
func (al *Aligner) AppendAlignment(ctx context.Context, arch *Archive, a *Alignment) error {
	eng := al.engine(ctx)
	err := eng.Hooks.Err()
	if err != nil {
		return err
	}
	m := al.cfg.method
	fresh := a.state != nil && a.state.al == al && a.state.version == 0 && al.cfg.storage == nil
	if fresh && (m == Hybrid || m == Overlap || m == SigmaEdit) && a.Source() == arch.LatestGraph() {
		err = arch.Append(a.c, a.part, al.cfg.resolveAmbiguous)
	} else {
		err = al.appendPair(eng, arch, a.Target())
	}
	if err != nil {
		return err
	}
	eng.Hooks.Round(core.StageArchive, arch.Versions(), arch.Versions())
	return nil
}
