// Package config holds the simulated machine configuration. Defaults
// follow Table I of the paper (gem5 configuration calibrated to Intel
// Optane DC PMM per Izraelevitz et al. [58]); the clock is 2 GHz, so one
// cycle is 0.5 ns.
package config

import "fmt"

// MaxCores is the largest core count a machine can have: the coherence
// directory keeps each line's sharers as one bit per core in a uint64.
const MaxCores = 64

// Config describes one simulated machine.
type Config struct {
	// Cores is the number of simulated cores / hardware threads, at
	// most MaxCores.
	Cores int

	// StoreQueueEntries is the per-core store queue capacity (Table I:
	// 64).
	StoreQueueEntries int

	// PersistQueueEntries is the per-core persist queue capacity
	// (StrandWeaver: 16).
	PersistQueueEntries int
	// StrandBuffers is the number of strand buffers in the strand buffer
	// unit (default 4).
	StrandBuffers int
	// StrandBufferEntries is the capacity of each strand buffer
	// (default 4).
	StrandBufferEntries int
	// HOPSPersistBufferEntries is the per-core persist buffer capacity
	// for the HOPS design (matched to the strand buffer unit's total
	// capacity so comparisons are storage-fair).
	HOPSPersistBufferEntries int

	// L1HitCycles is the D-cache hit latency (Table I: 2 ns = 4 cycles).
	L1HitCycles uint64
	// L2HitCycles is the L2 hit latency (Table I: 16 ns = 32 cycles).
	L2HitCycles uint64
	// L1Sets, L1Ways: 32 kB, 2-way, 64 B lines => 256 sets.
	L1Sets, L1Ways int
	// L2Sets, L2Ways: 28 MB, 16-way, 64 B lines => 28672 sets.
	L2Sets, L2Ways int
	// L1MSHRs bounds outstanding L1 misses (Table I: 6).
	L1MSHRs int

	// PMReadCycles is the PM read latency (346 ns = 692 cycles).
	PMReadCycles uint64
	// PMWriteToControllerCycles is the latency for a flush to reach and
	// be accepted by the ADR controller (96 ns = 192 cycles). Acceptance
	// is the persistence point.
	PMWriteToControllerCycles uint64
	// PMWriteToMediaCycles is the controller-to-media write latency
	// (500 ns = 1000 cycles); it consumes controller write-queue
	// occupancy but not program-visible latency under ADR.
	PMWriteToMediaCycles uint64
	// PMWriteQueueEntries is the controller write queue depth (Table I:
	// 64).
	PMWriteQueueEntries int
	// PMReadQueueEntries is the controller read queue depth (Table I:
	// 32).
	PMReadQueueEntries int
	// PMBanks is the number of concurrently serviceable PM banks; the
	// controller drains up to PMBanks writes to media in parallel.
	PMBanks int
	// PMControllers is the number of address-interleaved PM controllers
	// the machine shards its persistence boundary across (default 1, the
	// paper's configuration). Lines map to controllers by the fixed
	// interleave (line >> mem.LineShift) & (PMControllers-1), so the
	// count must be a power of two; consecutive cache lines land on
	// consecutive controllers. Every controller gets the full per-
	// controller queue/bank geometry above, so raising the count scales
	// aggregate persist bandwidth. Zero means 1 (single controller), so
	// zero-value configurations keep their historical meaning.
	PMControllers int
	// PMAckCycles is the on-chip latency for the controller's acceptance
	// acknowledgement to reach the flushing core.
	PMAckCycles uint64
	// PMMediaMaxRetries bounds retries of a media write after injected
	// transient failures (fault injection only; no effect without a
	// fault hook). When the bound is exhausted the write is forced
	// through and counted in Stats.MediaRetriesExhausted.
	PMMediaMaxRetries int
	// PMMediaRetryBackoffCycles is the wait between media write retries.
	PMMediaRetryBackoffCycles uint64
	// DRAMReadCycles is the DRAM access latency for L2 misses to the
	// volatile region.
	DRAMReadCycles uint64

	// FlushInvalidates models CLFLUSHOPT (older x86) instead of CLWB:
	// the flush evicts the line rather than retaining a clean copy, so
	// the next access to it misses. Default false (CLWB, as the paper
	// assumes throughout).
	FlushInvalidates bool
}

// Default returns the Table I configuration with the StrandWeaver default
// 16-entry persist queue and 4x4 strand buffer unit.
func Default() Config {
	return Config{
		Cores:                     8,
		StoreQueueEntries:         64,
		PersistQueueEntries:       16,
		StrandBuffers:             4,
		StrandBufferEntries:       4,
		HOPSPersistBufferEntries:  16,
		L1HitCycles:               4,
		L2HitCycles:               32,
		L1Sets:                    256,
		L1Ways:                    2,
		L2Sets:                    28672,
		L2Ways:                    16,
		L1MSHRs:                   6,
		PMReadCycles:              692,
		PMWriteToControllerCycles: 192,
		PMWriteToMediaCycles:      1000,
		PMWriteQueueEntries:       64,
		PMReadQueueEntries:        32,
		PMBanks:                   64,
		PMControllers:             1,
		PMAckCycles:               60,
		PMMediaMaxRetries:         8,
		PMMediaRetryBackoffCycles: 250,
		DRAMReadCycles:            100,
	}
}

// Validate reports a non-nil error description for nonsensical values.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return errf("Cores must be positive, got %d", c.Cores)
	case c.Cores > MaxCores:
		return errf("Cores must be at most %d (the coherence directory's sharer set is a 64-bit mask), got %d", MaxCores, c.Cores)
	case c.StoreQueueEntries <= 0:
		return errf("StoreQueueEntries must be positive, got %d", c.StoreQueueEntries)
	case c.PersistQueueEntries <= 0:
		return errf("PersistQueueEntries must be positive, got %d", c.PersistQueueEntries)
	case c.StrandBuffers <= 0:
		return errf("StrandBuffers must be positive, got %d", c.StrandBuffers)
	case c.StrandBufferEntries <= 0:
		return errf("StrandBufferEntries must be positive, got %d", c.StrandBufferEntries)
	case c.PMBanks <= 0:
		return errf("PMBanks must be positive, got %d", c.PMBanks)
	case c.PMWriteQueueEntries <= 0:
		return errf("PMWriteQueueEntries must be positive, got %d", c.PMWriteQueueEntries)
	case c.PMControllers < 0 || c.PMControllers&(c.PMControllers-1) != 0:
		// The mask interleave requires a power of two (0 means 1).
		return errf("PMControllers must be a power of two, got %d", c.PMControllers)
	case c.L1Sets <= 0 || c.L1Ways <= 0:
		return errf("L1 geometry must be positive, got %dx%d", c.L1Sets, c.L1Ways)
	case c.L2Sets <= 0 || c.L2Ways <= 0:
		return errf("L2 geometry must be positive, got %dx%d", c.L2Sets, c.L2Ways)
	case c.PMMediaMaxRetries < 0:
		return errf("PMMediaMaxRetries must be non-negative, got %d", c.PMMediaMaxRetries)
	case c.PMMediaMaxRetries > 0 && c.PMMediaRetryBackoffCycles == 0:
		return errf("PMMediaRetryBackoffCycles must be positive when retries are enabled")
	}
	return nil
}

type configError string

func (e configError) Error() string { return "config: " + string(e) }

func errf(format string, args ...any) error {
	return configError(fmt.Sprintf(format, args...))
}
