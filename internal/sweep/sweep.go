// Package sweep is the shared parallel sweep engine: it fans a list of
// independent, deterministic simulation cells out over a bounded pool
// of worker goroutines and re-collects their results in cell order.
//
// The engine's contract is that parallelism is invisible in the
// results: a sweep run with any worker count produces byte-identical
// output to a serial run. That holds because cells are required to be
// hermetic — each cell builds its own machine, derives its own seeds
// (see CellSeed), and communicates only through its return value. The
// engine contributes the other half of the contract: cells are claimed
// in index order, results land at their cell's index, and the first
// error reported is always the erroring cell with the lowest index, so
// neither scheduling nor completion order can leak into what callers
// see. Only the observability side channel (CellMetrics wall times and
// worker assignments, collected into a Report) varies across runs.
//
// The experiment grid (internal/harness.RunGrid), the ablation sweeps,
// and the crash-recovery torture driver all run on this engine; see
// docs/DETERMINISM.md for the rules a new sweep must follow.
package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// CellError is one cell's failure, carrying enough identity to act on
// it without re-deriving indices from error strings. Unwrap exposes
// the cell body's underlying error for errors.Is/As.
type CellError struct {
	// Index and Key identify the failed cell.
	Index int
	Key   string
	// Err is the cell's underlying failure.
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d %q: %v", e.Index, e.Key, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// CellErrors aggregates every failure of a KeepGoing sweep, in cell
// order. Run returns it (as error) when at least one cell failed;
// callers recover the per-cell detail with errors.As.
type CellErrors struct {
	Errs []*CellError
}

func (e *CellErrors) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d cells failed:", len(e.Errs))
	for _, ce := range e.Errs {
		b.WriteString("\n\t")
		b.WriteString(ce.Error())
	}
	return b.String()
}

// Unwrap exposes the per-cell failures to errors.Is/As.
func (e *CellErrors) Unwrap() []error {
	out := make([]error, len(e.Errs))
	for i, ce := range e.Errs {
		out[i] = ce
	}
	return out
}

// Options configures one sweep.
type Options struct {
	// Parallel is the worker pool size: 0 means runtime.GOMAXPROCS(0),
	// 1 runs the cells serially on the calling goroutine, and larger
	// values bound the pool. Results are identical for every value.
	Parallel int
	// Report, when non-nil, collects one CellMetrics per executed cell
	// (appended in cell order). Observability only: wall times and
	// worker assignments in the report are not deterministic.
	Report *Report
	// KeepGoing runs every cell even after failures. Each failed cell
	// degrades into its CellMetrics.Err entry (partial metrics intact)
	// and Run's error aggregates all failures as a *CellErrors in cell
	// order, instead of stopping at the lowest-index failure. Healthy
	// cells' results are byte-identical either way.
	KeepGoing bool

	// cellDone, when non-nil, runs on the worker right after it has
	// recorded cell i's outcome, so after a failure of cell i has
	// stopped further claims. Tests use it to order cells against
	// that point.
	cellDone func(i int)
}

// workers resolves the pool size.
func (o Options) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Cell is one independent unit of a sweep: a keyed closure that builds
// and runs its own isolated simulation. A cell must be hermetic — no
// shared RNG, no shared machine, no writes to captured state — so that
// cells can execute concurrently and in any order without changing
// each other's results. Seeds inside a cell should be derived from the
// sweep's root seed and the cell's key (CellSeed), never drawn from a
// generator shared across cells.
type Cell[T any] struct {
	// Key identifies the cell: stable across runs, unique within the
	// sweep. It names the cell in metrics and error messages and is the
	// designated input for CellSeed derivation.
	Key string
	// Run executes the cell and returns its result. The CellMetrics
	// argument is the cell's metrics record; fold simulator outcomes
	// into it with AddRun. Run must not retain m past its return.
	Run func(m *CellMetrics) (T, error)
}

// Run executes the cells on a bounded worker pool and returns their
// results in cell order (results[i] belongs to cells[i]). Cells are
// claimed strictly in index order; once any cell fails, no further
// cells are started, and the returned error is the failure with the
// lowest cell index — the same error a serial run would have stopped
// at. Results of cells that completed successfully are returned even
// alongside an error. A panicking cell is converted into an error
// rather than taking down the process. Under Options.KeepGoing every
// cell runs regardless of failures and the error is a *CellErrors
// aggregating them in cell order.
func Run[T any](o Options, cells []Cell[T]) ([]T, error) {
	n := o.workers()
	if n > len(cells) {
		n = len(cells)
	}
	results := make([]T, len(cells))
	errs := make([]error, len(cells))
	metrics := make([]CellMetrics, len(cells))
	ran := make([]bool, len(cells))
	start := time.Now() //strandvet:ok wall time feeds only the metrics side channel, never results

	if n <= 1 {
		for i := range cells {
			runCell(cells[i], i, &metrics[i], &results[i], &errs[i])
			ran[i] = true
			if o.cellDone != nil {
				o.cellDone(i)
			}
			if errs[i] != nil && !o.KeepGoing {
				break
			}
		}
	} else {
		var (
			mu     sync.Mutex
			next   int
			failed bool
			wg     sync.WaitGroup
		)
		claim := func() int {
			mu.Lock()
			defer mu.Unlock()
			if failed || next >= len(cells) {
				return -1
			}
			i := next
			next++
			return i
		}
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func(worker int) {
				defer wg.Done()
				for {
					i := claim()
					if i < 0 {
						return
					}
					runCell(cells[i], i, &metrics[i], &results[i], &errs[i])
					metrics[i].Worker = worker
					ran[i] = true
					if errs[i] != nil && !o.KeepGoing {
						mu.Lock()
						failed = true
						mu.Unlock()
					}
					if o.cellDone != nil {
						o.cellDone(i)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	if o.Report != nil {
		o.Report.Parallel = o.Parallel
		o.Report.Workers = n
		o.Report.WallNS += time.Since(start).Nanoseconds() //strandvet:ok sweep wall time is metrics-only (Report.WallNS)
		for i := range metrics {
			if ran[i] {
				o.Report.add(metrics[i])
			}
		}
	}
	if o.KeepGoing {
		// Aggregate every failure in cell order so callers see the same
		// error at any worker count.
		var agg CellErrors
		for i, err := range errs {
			if err == nil {
				continue
			}
			ce, ok := err.(*CellError)
			if !ok {
				ce = &CellError{Index: i, Key: cells[i].Key, Err: err}
			}
			agg.Errs = append(agg.Errs, ce)
		}
		if len(agg.Errs) > 0 {
			return results, &agg
		}
		return results, nil
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// runCell executes one cell, filling m, res and errp, recording wall
// time and converting a panic into an error. Each invocation touches
// only index i of Run's shared slices, so concurrent invocations never
// race. Partial metrics the cell folded in before failing (AddRun,
// AddEngine) survive in m — a failed cell publishes what it measured.
func runCell[T any](c Cell[T], i int, m *CellMetrics, res *T, errp *error) {
	m.Key = c.Key
	m.Index = i
	t0 := time.Now() //strandvet:ok per-cell wall time is metrics-only (CellMetrics.WallNS)
	defer func() {
		m.WallNS = time.Since(t0).Nanoseconds() //strandvet:ok per-cell wall time is metrics-only (CellMetrics.WallNS)
		if r := recover(); r != nil {
			*errp = fmt.Errorf("sweep: cell %q panicked: %v", c.Key, r)
		}
		if *errp != nil {
			m.Err = (*errp).Error()
		}
	}()
	*res, *errp = c.Run(m)
}

// CellSeed derives a cell-private RNG seed from a sweep's root seed and
// the cell's key: FNV-1a over the key folded into the root, finalized
// with a splitmix64 round. Distinct keys decorrelate even when the root
// seed and key prefixes match; the same (root, key) pair always yields
// the same seed, which is what keeps a parallel sweep's fault draws and
// workload shuffles byte-identical to a serial run's. Never substitute
// a generator shared across cells: its draw order would depend on cell
// scheduling.
func CellSeed(root uint64, key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	z := root ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
