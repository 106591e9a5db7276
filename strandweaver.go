// Package strandweaver is a simulation-based reproduction of "Relaxed
// Persist Ordering Using Strand Persistency" (Gogte et al., ISCA 2020).
//
// It provides:
//
//   - a deterministic discrete-event simulator of a multi-core machine
//     with write-back caches, MESI-style coherence, and an ADR
//     persistent-memory controller (Table I configuration);
//   - the StrandWeaver hardware: the persist queue and the strand
//     buffer unit implementing the PersistBarrier / NewStrand /
//     JoinStrand ISA primitives (paper Section IV), plus the Intel x86,
//     HOPS, no-persist-queue and non-atomic comparison designs;
//   - a formal executable model of strand persistency (Equations 1-4)
//     with exhaustive crash-state enumeration, cross-validated against
//     the simulated hardware on the paper's Figure 2 litmus shapes;
//   - the undo-logging runtime of Section V with the TXN / ATLAS / SFR
//     language-level persistency models, recovery, and crash-injection
//     testing;
//   - the benchmark suite of Table II and a harness that regenerates
//     every table and figure of the paper's evaluation.
//
// Quick start:
//
//	sys := strandweaver.NewSystem(strandweaver.DefaultConfig(), strandweaver.StrandWeaver)
//	rt := strandweaver.NewRuntime(sys, strandweaver.SFR, 2, strandweaver.DefaultRuntimeOptions())
//	// ... build structures, run workers; see examples/quickstart.
package strandweaver

import (
	"io"

	"strandweaver/internal/backend"
	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/fuzzsched"
	"strandweaver/internal/harness"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/litmus"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/palloc"
	"strandweaver/internal/pds"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
	"strandweaver/internal/redolog"
	"strandweaver/internal/relax"
	"strandweaver/internal/sim"
	"strandweaver/internal/sweep"
	"strandweaver/internal/trace"
	"strandweaver/internal/undolog"
	"strandweaver/internal/workloads"
)

// Addr is a simulated physical address.
type Addr = mem.Addr

// Address-space landmarks.
const (
	// PMBase is the first persistent address.
	PMBase = mem.PMBase
	// DRAMBase is the first volatile address.
	DRAMBase = mem.DRAMBase
	// HeapOffset is where the persistent heap begins (past root page,
	// log descriptors and log buffers).
	HeapOffset = undolog.HeapOffset
	// LineSize is the cache-line / persist granularity.
	LineSize = mem.LineSize
)

// Config is the simulated machine configuration (Table I defaults via
// DefaultConfig).
type Config = config.Config

// DefaultConfig returns the paper's Table I configuration.
func DefaultConfig() Config { return config.Default() }

// MaxCores is the largest simulated core count a Config may ask for.
const MaxCores = config.MaxCores

// Design selects the persist-ordering hardware.
type Design = hwdesign.Design

// The evaluated hardware designs: the paper's five, plus an eADR
// upper bound (caches inside the persistence domain, every ordering
// primitive free).
const (
	IntelX86       = hwdesign.IntelX86
	HOPS           = hwdesign.HOPS
	NoPersistQueue = hwdesign.NoPersistQueue
	StrandWeaver   = hwdesign.StrandWeaver
	NonAtomic      = hwdesign.NonAtomic
	EADR           = hwdesign.EADR
)

// AllDesigns lists the designs in evaluation order.
var AllDesigns = hwdesign.All

// DesignNames lists the parseable design labels in evaluation order.
func DesignNames() []string { return hwdesign.Names() }

// ParseDesign resolves a design by its evaluation label.
func ParseDesign(s string) (Design, error) { return hwdesign.Parse(s) }

// Model selects the language-level persistency model.
type Model = langmodel.Model

// The three language-level persistency models.
const (
	TXN   = langmodel.TXN
	ATLAS = langmodel.ATLAS
	SFR   = langmodel.SFR
)

// AllModels lists the models in evaluation order.
var AllModels = langmodel.All

// ParseModel resolves a model by name ("txn", "atlas", "sfr").
func ParseModel(s string) (Model, error) { return langmodel.ParseModel(s) }

// System is one simulated machine (cores, caches, PM controller,
// functional memory images).
type System = machine.System

// Core is one simulated core; its methods (Load64, Store64, CLWB,
// PersistBarrier, NewStrand, JoinStrand, ...) are the ISA surface.
type Core = cpu.Core

// ErrPrimitiveUnavailable is returned by the ordering primitives when
// the selected hardware design does not implement them (for example
// PersistBarrier on Intel x86). Match it with errors.As.
type ErrPrimitiveUnavailable = backend.ErrPrimitiveUnavailable

// Worker is a simulated-thread body.
type Worker = machine.Worker

// NewSystem builds a machine for the given configuration and design.
func NewSystem(cfg Config, d Design) *System { return machine.MustNew(cfg, d) }

// Runtime is the language-level persistency runtime (undo logging,
// failure-atomic regions, deferred commits).
type Runtime = langmodel.Runtime

// Tx is the mutation interface inside a failure-atomic region.
type Tx = langmodel.Tx

// RuntimeOptions tunes the language runtime.
type RuntimeOptions = langmodel.Options

// DefaultRuntimeOptions returns production defaults.
func DefaultRuntimeOptions() RuntimeOptions { return langmodel.DefaultOptions() }

// NewRuntime binds a language-level model to a system.
func NewRuntime(sys *System, m Model, threads int, opts RuntimeOptions) *Runtime {
	return langmodel.New(sys, m, threads, opts)
}

// Arena is a simple allocator over simulated memory.
type Arena = palloc.Arena

// NewPMArena returns an arena over the persistent heap.
func NewPMArena(offset, size uint64) *Arena { return palloc.NewPM(offset, size) }

// NewDRAMArena returns an arena over volatile memory.
func NewDRAMArena(offset, size uint64) *Arena { return palloc.NewDRAM(offset, size) }

// Host performs host-side (unmeasured) setup writes.
type Host = pds.Host

// Persistent data structures from the paper's benchmarks.
type (
	// Queue is a bounded persistent FIFO.
	Queue = pds.Queue
	// Hashmap is a persistent chained hash table.
	Hashmap = pds.Hashmap
	// Array is a persistent swap array.
	Array = pds.Array
	// RBTree is a persistent red-black tree.
	RBTree = pds.RBTree
)

// Structure constructors and verifiers.
var (
	NewQueue      = pds.NewQueue
	NewHashmap    = pds.NewHashmap
	NewArray      = pds.NewArray
	NewRBTree     = pds.NewRBTree
	VerifyQueue   = pds.VerifyQueue
	VerifyHashmap = pds.VerifyHashmap
	VerifyArray   = pds.VerifyArray
	VerifyRBTree  = pds.VerifyRBTree
)

// Image is a functional memory image (the persistent image doubles as
// the crash image recovery runs against).
type Image = mem.Image

// RecoveryReport summarises one recovery pass.
type RecoveryReport = undolog.Report

// Recover runs undo-log recovery over a crash image for the first
// threads logs, rolling back uncommitted failure-atomic regions.
func Recover(img *Image, threads int) (*RecoveryReport, error) {
	return undolog.Recover(img, threads)
}

// Cycle is simulated time in CPU cycles (2 GHz).
type Cycle = sim.Cycle

// TraceRecorder records per-core operation timelines; obtain one with
// (*System).EnableTracing and inspect or Dump it after a run.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded operation instance.
type TraceEvent = trace.Event

// --- Experiment harness ---

// Spec configures one measured benchmark run.
type Spec = harness.Spec

// Result is one run's measurements.
type Result = harness.Result

// Run executes one benchmark spec.
func Run(spec Spec) (*Result, error) { return harness.Run(spec) }

// RunWithCrash crashes the run at each cycle cuts places over its
// crash-free run of end cycles (a cut at end+1 crashes the drained
// final state), recovers each crash image, and verifies workload
// invariants. It returns the recovery reports in cut order.
func RunWithCrash(spec Spec, cuts func(end Cycle) []Cycle) ([]*RecoveryReport, error) {
	return harness.RunWithCrash(spec, cuts)
}

// ExpOptions scales the experiment grids.
type ExpOptions = harness.ExpOptions

// Grid is the full benchmark x model x design evaluation grid.
type Grid = harness.Grid

// Experiment drivers and printers for every table and figure of the
// paper's evaluation, plus the design-choice ablations.
var (
	RunGrid                   = harness.RunGrid
	Table2                    = harness.Table2
	Fig9                      = harness.Fig9
	Fig10                     = harness.Fig10
	ComputeClaims             = harness.ComputeClaims
	LoggingAblation           = harness.LoggingAblation
	PersistQueueDepthAblation = harness.PersistQueueDepthAblation
	HOPSBufferAblation        = harness.HOPSBufferAblation
	FlushInstructionAblation  = harness.FlushInstructionAblation
)

// PrintLoggingAblation renders the undo-vs-redo engine comparison.
func PrintLoggingAblation(w io.Writer, pts []harness.LoggingAblationPoint) {
	harness.PrintLoggingAblation(w, pts)
}

// PrintQueueDepthAblation renders the persist-queue depth sweep.
func PrintQueueDepthAblation(w io.Writer, pts []harness.QueueDepthPoint) {
	harness.PrintQueueDepthAblation(w, pts)
}

// PrintHOPSBufferAblation renders the HOPS buffer capacity sweep.
func PrintHOPSBufferAblation(w io.Writer, pts []harness.HOPSBufferPoint) {
	harness.PrintHOPSBufferAblation(w, pts)
}

// PrintFlushInstructionAblation renders the CLWB-vs-CLFLUSHOPT
// comparison.
func PrintFlushInstructionAblation(w io.Writer, pts []harness.FlushInstrPoint) {
	harness.PrintFlushInstructionAblation(w, pts)
}

// PrintFig7 renders the Figure 7 speedup grid.
func PrintFig7(w io.Writer, g *Grid) { harness.PrintFig7(w, g) }

// PrintFig8 renders the Figure 8 stall comparison.
func PrintFig8(w io.Writer, g *Grid) { harness.PrintFig8(w, g) }

// PrintTable2 renders Table II.
func PrintTable2(w io.Writer, rows []harness.Table2Row) { harness.PrintTable2(w, rows) }

// PrintFig9 renders the strand-buffer sensitivity sweep.
func PrintFig9(w io.Writer, pts []harness.Fig9Point) { harness.PrintFig9(w, pts) }

// PrintFig10 renders the ops-per-SFR sweep.
func PrintFig10(w io.Writer, pts []harness.Fig10Point) { harness.PrintFig10(w, pts) }

// PrintClaims renders the paper-vs-measured headline comparison.
func PrintClaims(w io.Writer, cl harness.Claims) { harness.PrintClaims(w, cl) }

// BenchmarkNames lists the Table II benchmark registry.
func BenchmarkNames() []string { return workloads.Names() }

// --- Parallel sweep engine ---

// SweepReport aggregates per-cell metrics for one sweep (see
// ExpOptions.Metrics and TortureOptions.Metrics). Metrics are an
// observability side channel: sweep results themselves are
// byte-identical at any worker count.
type SweepReport = sweep.Report

// SweepCellMetrics is one cell's wall-time and simulator metrics.
type SweepCellMetrics = sweep.CellMetrics

// NewSweepReport returns an empty named report to pass as
// ExpOptions.Metrics or TortureOptions.Metrics.
func NewSweepReport(name string) *SweepReport { return sweep.NewReport(name) }

// WriteSweepReports writes reports as a JSON array (the CLI's
// -metrics-out format).
func WriteSweepReports(w io.Writer, reps []*SweepReport) error {
	return sweep.WriteReportsJSON(w, reps)
}

// SweepCellSeed derives a decorrelated per-cell seed from a root seed
// and a cell key (see docs/DETERMINISM.md).
func SweepCellSeed(root uint64, key string) uint64 { return sweep.CellSeed(root, key) }

// --- Formal model and litmus testing ---

// LitmusProgram is an abstract persistency litmus program.
type LitmusProgram = pmo.Program

// LitmusState is a post-crash PM state.
type LitmusState = pmo.State

// Litmus op constructors.
var (
	// LSt is an abstract persist (store) to a location.
	LSt = pmo.St
	// LLd is an abstract load.
	LLd = pmo.Ld
	// LPB is a persist barrier.
	LPB = pmo.PB
	// LNS is a NewStrand.
	LNS = pmo.NS
	// LJS is a JoinStrand.
	LJS = pmo.JS
)

// AllowedStates enumerates every crash state the strand persistency
// model (Equations 1-4) allows for the program, keyed by
// LitmusState.Key. A program past the enumeration's limits (more than
// 64 stores, more than 2^17 interleavings of its stores or more than
// 2^22 allowed crash cuts) is an error naming the limit.
func AllowedStates(p LitmusProgram) (map[string]LitmusState, error) {
	return pmo.NewBuilder(p).States()
}

// StateAllowed reports whether the model allows the state. It returns
// AllowedStates' error for a program past the limits.
func StateAllowed(p LitmusProgram, s LitmusState) (bool, error) {
	states, err := AllowedStates(p)
	if err != nil {
		return false, err
	}
	_, ok := states[s.Key()]
	return ok, nil
}

// LitmusCheckResult summarises a hardware-vs-model cross-validation.
type LitmusCheckResult = litmus.Result

// CheckLitmus runs the program on the simulated StrandWeaver hardware
// with dense crash injection and validates every observed PM state
// against the formal model.
func CheckLitmus(p LitmusProgram, stride uint64) (*LitmusCheckResult, error) {
	return litmus.Check(p, stride)
}

// StandardLitmusPrograms returns the Figure 2 litmus shapes plus extra
// barrier/strand compositions, keyed by name.
func StandardLitmusPrograms() map[string]LitmusProgram { return litmus.StandardPrograms() }

// StandardLitmusProgramNames returns the StandardLitmusPrograms keys in
// sorted order — the canonical deterministic iteration order.
func StandardLitmusProgramNames() []string { return litmus.StandardProgramNames() }

// --- Static persist-order analysis (lint) ---

// LintReport is the static analyzer's structured result for one
// program or instruction stream.
type LintReport = persistcheck.Report

// LintFinding is one analyzer diagnostic.
type LintFinding = persistcheck.Finding

// LintSeverity grades a finding (info, warn, error).
type LintSeverity = persistcheck.Severity

// LintRelaxation quantifies a recipe's persist ordering against the
// Intel x86 baseline recipe.
type LintRelaxation = persistcheck.Relaxation

// Lint severity levels.
const (
	LintInfo  = persistcheck.SevInfo
	LintWarn  = persistcheck.SevWarn
	LintError = persistcheck.SevError
)

// ParseLintSeverity parses a severity name ("info", "warn", "error").
func ParseLintSeverity(s string) (LintSeverity, error) { return persistcheck.ParseSeverity(s) }

// AnalyzeLitmusProgram statically analyzes an abstract litmus program:
// it builds the prescribed persist-order DAG of the formal model's
// equations without simulating, and reports redundant barriers and
// strand misuse.
func AnalyzeLitmusProgram(name string, p LitmusProgram) *LintReport {
	return persistcheck.AnalyzeProgram(name, p)
}

// --- Auto-relaxation (search-based strand-annotation minimization) ---

// RelaxResult is one subject's auto-relaxation outcome: status, the
// oracle-validated step log, initial/final ordering footprints, and
// the rewritten program.
type RelaxResult = relax.Result

// RelaxStep is one accepted, oracle-validated transform of a
// relaxation log.
type RelaxStep = relax.Step

// RelaxRequirement is one persist-order obligation the optimizer must
// preserve, by stable store ordinal.
type RelaxRequirement = relax.Requirement

// RelaxStoreRef names a store by thread and store ordinal (its rank
// among the thread's stores, 0-based) — stable under every barrier
// rewrite, unlike a program index.
type RelaxStoreRef = pmo.StoreRef

// RelaxStatus classifies an optimization outcome.
type RelaxStatus = relax.Status

// Relaxation outcome statuses.
const (
	RelaxOptimized         = relax.StatusOptimized
	RelaxVisibilityOrdered = relax.StatusVisibilityOrdered
	RelaxUnsatisfiable     = relax.StatusUnsatisfiable
)

// RelaxLitmusProgram rewrites an abstract litmus program to minimal
// strand annotations: it greedily demotes, deletes, and strand-splits
// barriers, accepting only rewrites whose allowed crash cuts are a
// superset of the original's and still satisfy every requirement —
// each step proved against the model's crash cuts. A program with its
// stores on one thread is proved by order inclusion and has no size
// limit; one with stores on several threads is proved against the
// enumerated cut masks, and past their limits (more than 64 stores,
// among others) returns an error naming the limit.
func RelaxLitmusProgram(name string, p LitmusProgram, reqs []RelaxRequirement) (*RelaxResult, error) {
	return relax.Optimize(relax.Input{Name: name, Program: p, Requires: reqs})
}

// CheckLitmusWithFaults is CheckLitmus under a fault plan: the plan's
// injector is armed on the run, and each crash cut's image draws from
// a fresh injector seeded per cut. The zero plan is CheckLitmus.
func CheckLitmusWithFaults(p LitmusProgram, stride uint64, plan FaultPlan) (*LitmusCheckResult, error) {
	return litmus.CheckWithFaults(p, stride, plan)
}

// --- Fault injection and torture testing ---

// FaultPlan parameterises deterministic fault injection: torn persists
// at the persistence boundary (8-byte word granularity), transient PM
// media faults and latency spikes, and the beyond-ADR TearAccepted
// torture mode.
type FaultPlan = faultinject.Plan

// FaultStats counts injected faults.
type FaultStats = faultinject.Stats

// FaultInjector draws every fault decision from a seeded generator in
// simulator event order, so crash images are reproducible byte-for-byte.
type FaultInjector = faultinject.Injector

// NewFaultInjector returns an injector for the plan. Arm it on a system
// before running; call CrashImage at the crash point for the
// post-power-failure PM image.
func NewFaultInjector(p FaultPlan) *FaultInjector { return faultinject.New(p) }

// FaultPresets returns the torture sweep's standard plans at the given
// seed, mild to hostile.
func FaultPresets(seed uint64) []FaultPlan { return faultinject.Presets(seed) }

// Recoverer is one recovery pass over a crash image.
type Recoverer = faultinject.Recoverer

// Convergence summarises one crash-during-recovery budget sweep.
type Convergence = faultinject.Convergence

// CheckConvergence asserts a recovery procedure is restartable: for
// each write budget it interrupts recovery with a simulated power cut,
// re-runs it, and requires byte-identical convergence with an
// uninterrupted pass.
func CheckConvergence(crash *Image, rec Recoverer, maxBudgets int) (Convergence, error) {
	return faultinject.CheckConvergence(crash, rec, maxBudgets)
}

// RedoRecoveryReport summarises one redo-log recovery pass.
type RedoRecoveryReport = redolog.Report

// RecoverRedo runs redo-log recovery over a crash image for the first
// threads logs, replaying committed transactions.
func RecoverRedo(img *Image, threads int) (*RedoRecoveryReport, error) {
	return redolog.Recover(img, threads)
}

// TortureOptions configures a torture sweep.
type TortureOptions = harness.TortureOptions

// TortureReport summarises a torture sweep.
type TortureReport = harness.TortureReport

// Torture runs the crash-recovery torture harness: crash cycles x fault
// plans across litmus programs, undo-logged structures and the redo
// log, with invariant checks and crash-during-recovery convergence
// sweeps.
func Torture(o TortureOptions) (*TortureReport, error) { return harness.Torture(o) }

// PrintTorture renders a torture report.
func PrintTorture(w io.Writer, o TortureOptions, rep *TortureReport) {
	harness.PrintTorture(w, o, rep)
}

// FuzzOptions configures a coverage-guided fault-schedule search
// (strandweaver fuzz). The search is a pure function of (Seed,
// Schedules): the Deadline hook is the only wall-clock entry point and
// only ever stops it early.
type FuzzOptions = fuzzsched.Options

// FuzzExecOptions bounds one schedule execution (sim event-budget
// watchdog, cycle limit).
type FuzzExecOptions = fuzzsched.ExecOptions

// FuzzResult summarises a search: corpus, violations, beyond-ADR
// coverage and degraded (watchdog-killed) schedules.
type FuzzResult = fuzzsched.Result

// FuzzViolation is one invariant failure, with its shrunk minimal
// repro when available.
type FuzzViolation = fuzzsched.Violation

// FuzzCorpusEntry is one coverage-novel schedule.
type FuzzCorpusEntry = fuzzsched.Entry

// Fuzz targets and seeded mutants.
const (
	FuzzTargetUndolog     = fuzzsched.TargetUndolog
	FuzzTargetRedolog     = fuzzsched.TargetRedolog
	FuzzMutantNoDataFlush = fuzzsched.MutantNoDataFlush
)

// Fuzz runs the coverage-guided fault-schedule search.
func Fuzz(o FuzzOptions) (*FuzzResult, error) { return fuzzsched.Run(o) }

// FuzzReplay re-executes a repro file and verifies the recorded
// failure text and crash-image fingerprint byte-for-byte.
func FuzzReplay(text string, o FuzzExecOptions) error { return fuzzsched.Replay(text, o) }

// FuzzMinimize shrinks a violating repro file to its minimal
// still-violating form and re-encodes it.
func FuzzMinimize(text string, o FuzzExecOptions) (string, error) {
	return fuzzsched.Minimize(text, o)
}

// FuzzEncodeCorpusEntry renders a corpus entry as a replayable repro
// file.
func FuzzEncodeCorpusEntry(e FuzzCorpusEntry) string { return fuzzsched.EncodeEntry(e) }
