package fuzzsched

import (
	"errors"
	"fmt"

	"strandweaver/internal/sweep"
)

// Options configures one search.
type Options struct {
	// Seed drives the whole search: same seed and schedule budget,
	// identical corpus, violations and repro files.
	Seed uint64
	// Schedules is the execution budget (shrink executions are extra
	// and accounted separately).
	Schedules int
	// Targets are the workloads to search over (default: the direct
	// undolog and redolog targets).
	Targets []string
	// Mutant injects a deliberate bug into undolog-family targets'
	// write paths (MutantNoDataFlush) — the seeded-mutant conviction
	// mode.
	Mutant string
	// Parallel bounds the sweep engine's worker pool (0 = GOMAXPROCS).
	// Results are byte-identical for every value.
	Parallel int
	// Deadline, when non-nil, is polled between batches; a true return
	// stops the search early. The CLI injects wall-clock deadlines
	// here — fuzz scheduling itself never reads the clock, so a
	// schedule-budget run is fully deterministic.
	Deadline func() bool
	// Exec configures each schedule execution (watchdog, controller
	// count, execution cache).
	Exec ExecOptions
	// Metrics, when non-nil, receives per-schedule sweep metrics.
	// Observability only.
	Metrics *sweep.Report
}

// batchSize is the number of schedules dispatched per sweep round.
// Mutation draws happen before dispatch, in schedule order, so the
// batch size never changes what is executed — only how much runs
// concurrently.
const batchSize = 16

// maxShrinks caps how many violations are shrunk to minimal repros;
// further violations are recorded unshrunk.
const maxShrinks = 4

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Schedules == 0 {
		o.Schedules = 64
	}
	if len(o.Targets) == 0 {
		o.Targets = []string{TargetUndolog, TargetRedolog}
	}
	return o
}

// Violation is one invariant failure the search found.
type Violation struct {
	// Genome is the schedule that failed; Failure its message;
	// Fingerprint its crash image.
	Genome      Genome
	Failure     string
	Fingerprint uint64
	// Schedule is the global execution index.
	Schedule int
	// Shrunk, when non-nil, is the minimised repro.
	Shrunk *ShrinkResult
}

// Repro renders the violation as a replayable repro file (the shrunk
// form when available).
func (v *Violation) Repro() string {
	if v.Shrunk != nil {
		return EncodeRepro(v.Shrunk.Genome, v.Shrunk.Failure, v.Shrunk.Fingerprint)
	}
	return EncodeRepro(v.Genome, v.Failure, v.Fingerprint)
}

// Result summarises one search.
type Result struct {
	// Executed counts fuzz schedule executions; ShrinkExecutions the
	// extra runs shrinking consumed.
	Executed         int
	ShrinkExecutions int
	// Corpus is the coverage-novel schedule set, in discovery order.
	Corpus *Corpus
	// Violations lists invariant failures in discovery order (empty on
	// a healthy model without a mutant).
	Violations []*Violation
	// BeyondADR counts TearAccepted schedules whose invariants broke —
	// expected contract breakage, kept as coverage.
	BeyondADR int
	// ExecErrors records infrastructure failures (wedged runs caught by
	// the watchdog, build errors), in schedule order.
	ExecErrors []string
	// SnapshotHits and SnapshotMisses count crashed-run checkpoint
	// lookups served from / missed by the execution cache. Observability
	// only: counts are scheduling-dependent under a parallel search and
	// never influence the corpus.
	SnapshotHits   uint64
	SnapshotMisses uint64
	// SnapshotBytes is the unique page bytes the execution cache's
	// checkpoints retain at search end. Checkpoints are copy-on-write
	// views, so shared pages count once. A pure function of the executed
	// schedule set — identical at any worker count — as long as the byte
	// budget never forces an eviction (see crashcut.Cache.RetainedBytes).
	SnapshotBytes uint64
}

// Run executes the search: seed schedules per target, then rounds of
// corpus mutations, each round fanned out on the sweep engine
// (KeepGoing: a wedged or failing schedule degrades into an ExecErrors
// entry) and folded back in schedule order. Violations are shrunk to
// minimal repros as they are found.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	if o.Exec.Cache == nil {
		// One cache for the whole search: batch cells and shrink runs
		// (Shrink receives o.Exec) all share it.
		o.Exec.Cache = NewExecCache()
	}
	r := newRng(o.Seed)
	res := &Result{Corpus: NewCorpus()}

	var queue []Genome
	for _, t := range o.Targets {
		g := SeedGenome(t)
		if o.Mutant != "" && t != TargetRedolog {
			g.Mutant = o.Mutant
		}
		queue = append(queue, g)
	}

	for res.Executed < o.Schedules {
		if o.Deadline != nil && o.Deadline() {
			break
		}
		// Draw the whole batch before dispatch: mutation consumes the
		// master generator in schedule order, so concurrency cannot
		// reorder draws.
		batch := make([]Genome, 0, batchSize)
		for len(batch) < batchSize && res.Executed+len(batch) < o.Schedules {
			if len(queue) > 0 {
				batch = append(batch, queue[0])
				queue = queue[1:]
				continue
			}
			if res.Corpus.Len() == 0 {
				break
			}
			parent := res.Corpus.Entries[r.intn(res.Corpus.Len())].Genome
			batch = append(batch, Mutate(parent, r))
		}
		if len(batch) == 0 {
			break
		}

		cells := make([]sweep.Cell[*Outcome], len(batch))
		for i, g := range batch {
			g := g
			cells[i] = sweep.Cell[*Outcome]{
				Key: fmt.Sprintf("sched%06d", res.Executed+i),
				Run: func(m *sweep.CellMetrics) (*Outcome, error) {
					return Execute(g, o.Exec)
				},
			}
		}
		outs, err := sweep.Run(sweep.Options{
			Parallel:  o.Parallel,
			KeepGoing: true,
			Report:    o.Metrics,
		}, cells)
		var agg *sweep.CellErrors
		if err != nil && !errors.As(err, &agg) {
			return res, err
		}
		cellErr := map[int]error{}
		if agg != nil {
			for _, ce := range agg.Errs {
				cellErr[ce.Index] = ce
			}
		}

		// Fold in schedule order: corpus growth, violations, shrinks.
		for i, g := range batch {
			sched := res.Executed + i
			if ce, bad := cellErr[i]; bad {
				res.ExecErrors = append(res.ExecErrors,
					fmt.Sprintf("schedule %d (%s): %v", sched, g.Target, ce))
				continue
			}
			out := outs[i]
			if out == nil {
				continue
			}
			res.Corpus.Add(Entry{
				Genome:      g,
				CovKey:      out.Cov.Key(g.Target),
				Fingerprint: out.Fingerprint,
				Failure:     out.Violation,
				Schedule:    sched,
			})
			if out.BeyondADR {
				res.BeyondADR++
			}
			if out.Violation == "" {
				continue
			}
			v := &Violation{Genome: g, Failure: out.Violation, Fingerprint: out.Fingerprint, Schedule: sched}
			if len(res.Violations) < maxShrinks {
				if sr, ok := Shrink(g, o.Exec); ok {
					v.Shrunk = &sr
					res.ShrinkExecutions += sr.Executions
				}
			}
			res.Violations = append(res.Violations, v)
		}
		res.Executed += len(batch)
	}
	res.SnapshotHits, res.SnapshotMisses = o.Exec.Cache.Stats()
	res.SnapshotBytes = o.Exec.Cache.RetainedBytes()
	return res, nil
}

// Replay re-executes a repro file's schedule and verifies the
// recorded outcome byte-for-byte: the failure text (empty for a
// healthy corpus entry) and the crash-image fingerprint must both
// match exactly. A nil return means the repro reproduces.
func Replay(text string, o ExecOptions) error {
	g, wantFailure, wantFP, err := DecodeRepro(text)
	if err != nil {
		return err
	}
	out, err := Execute(g, o)
	if err != nil {
		return fmt.Errorf("fuzzsched: replay execution failed: %w", err)
	}
	if out.Fingerprint != wantFP {
		return fmt.Errorf("fuzzsched: replay fingerprint %016x, repro recorded %016x", out.Fingerprint, wantFP)
	}
	if out.Violation != wantFailure {
		return fmt.Errorf("fuzzsched: replay failure %q, repro recorded %q", out.Violation, wantFailure)
	}
	return nil
}
