// Package faultinject is the deterministic fault-injection subsystem:
// torn persists at the persistence boundary, transient PM media faults
// and latency spikes at bank drain, and write-budgeted power cuts for
// crash-during-recovery torture. Every fault decision is drawn from a
// seeded generator in simulator event order, so a (seed, workload,
// crash cycle) triple reproduces byte-identical crash images.
//
// Fault model. The controller's acceptance is the persistence point
// (ADR): accepted writes are durable. A power failure therefore
// partitions in-flight writes in two:
//
//   - submitted-but-unaccepted writes (on-chip transit plus the
//     controllers' overflow queues) race the failure. They travel to
//     the controllers in one FIFO stream, every write at the same
//     transit latency, and are accepted in submission order, so the
//     power cut truncates that stream at one point: writes before the
//     cut reach acceptance and land fully, the single write
//     mid-transfer at the cut tears at mem.PersistAtomicBytes (8-byte)
//     granularity — each of its words independently lands or is lost —
//     and writes after the cut never arrive. Without TornPersists the
//     cut is at the stream's head (all dropped, the line-atomic
//     baseline). The stream is machine-wide at every controller count
//     (pmem.TopologyState.Unaccepted merges the controllers' shares by
//     submission stamp): a crash image is the persistence domain's
//     state at one instant. The FIFO property is load-bearing:
//     un-barriered traffic such as cache-eviction write-backs is
//     ordered only by submission, and recovery soundness (a torn log
//     entry implies its in-place update never persisted) relies on a
//     later submission never landing when an earlier one is lost.
//   - accepted-but-undrained writes are inside the ADR domain and
//     survive. The TearAccepted torture mode deliberately breaks this
//     guarantee (modelling a failed ADR flush) by reverting a random
//     subset of each such line's words to their pre-write contents; it
//     is off by default and exists to probe recovery beyond the
//     hardware contract.
package faultinject

import (
	"strconv"

	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// Plan parameterises one fault-injection configuration.
type Plan struct {
	// Seed initialises the deterministic generator.
	Seed uint64

	// TornPersists enables the submission-stream power cut in crash
	// images: a random prefix of the unaccepted writes lands, the write
	// at the cut tears word-by-word, the rest drop. When false, every
	// unaccepted write drops wholly.
	TornPersists bool
	// DropProb is the per-word probability that a word of the
	// mid-transfer write at the cut is lost (TornPersists only).
	DropProb float64
	// TearAccepted additionally tears accepted-but-undrained writes,
	// violating the ADR guarantee (torture mode; off by default).
	TearAccepted bool

	// MediaFaultProb is the per-attempt probability that a
	// controller-to-media write fails transiently (bounded retries with
	// backoff; see config.PMMediaMaxRetries).
	MediaFaultProb float64
	// MediaDelayProb is the per-attempt probability of a latency spike.
	MediaDelayProb float64
	// MediaDelayCycles is the spike magnitude.
	MediaDelayCycles uint64
}

// RunVisible returns the part of the plan that reaches a simulated run
// the plan is armed on: the media-fault knobs and the seed of the
// streams they draw from. Tears and drops act at crash-image time,
// off the machine. When both media probabilities are zero the armed
// injector draws nothing during the run (chanceFrom consumes no stream
// state for p <= 0), so the run is the same under every seed, the
// injector's stream positions anywhere in it are those of a fresh one,
// and RunVisible returns the zero Plan.
func (p Plan) RunVisible() Plan {
	if p.MediaFaultProb <= 0 && p.MediaDelayProb <= 0 {
		return Plan{}
	}
	return Plan{Seed: p.Seed, MediaFaultProb: p.MediaFaultProb,
		MediaDelayProb: p.MediaDelayProb, MediaDelayCycles: p.MediaDelayCycles}
}

// RunKey names RunVisible as a string: two plans' keys are equal
// exactly when their run-visible parts are (for plans without NaN
// probabilities, which equal nothing). It is the plan's part of the
// crash-cut run keys the torture sweep and the fuzz search build.
func (p Plan) RunKey() string { return string(p.AppendRunKey(nil)) }

// AppendRunKey appends RunKey's text to b. Floats are written in their
// shortest exact form ('g', -1), so distinct values never share a key;
// adding 0 folds -0 into +0, which compare equal.
func (p Plan) AppendRunKey(b []byte) []byte {
	v := p.RunVisible()
	b = append(b, "seed="...)
	b = strconv.AppendUint(b, v.Seed, 10)
	b = append(b, ",fault="...)
	b = strconv.AppendFloat(b, v.MediaFaultProb+0, 'g', -1, 64)
	b = append(b, ",delay="...)
	b = strconv.AppendFloat(b, v.MediaDelayProb+0, 'g', -1, 64)
	b = append(b, "x"...)
	return strconv.AppendUint(b, v.MediaDelayCycles, 10)
}

// Stats counts injected faults.
type Stats struct {
	// MediaFaults counts injected transient media write failures.
	MediaFaults uint64
	// MediaDelays counts injected latency spikes.
	MediaDelays uint64
	// TornLines counts crash-image boundary writes that tore (some
	// words kept, some dropped); at most one per crash image.
	TornLines uint64
	// LandedLines counts unaccepted writes before the power-cut point
	// that landed fully.
	LandedLines uint64
	// DroppedLines counts unaccepted line writes dropped wholly.
	DroppedLines uint64
	// WordsKept and WordsDropped count per-word outcomes across
	// boundary writes.
	WordsKept    uint64
	WordsDropped uint64
	// AcceptedTorn counts accepted writes torn under TearAccepted.
	AcceptedTorn uint64
}

// Injector draws fault decisions from a seeded generator. It implements
// pmem.FaultHook; install it with Arm.
//
// Crash images draw from the injector's primary stream alone. Media
// faults during a run draw per controller: controller 0 from the
// primary stream — the only stream a single-controller machine has —
// and each further controller from its own disjoint splitmix64 stream,
// derived from the plan seed and the controller index by Arm, so
// controllers' event interleavings never perturb each other's media
// fault sequences.
type Injector struct {
	plan  Plan
	state uint64
	stats Stats
	// ctrlStates[i] is controller i's media-fault stream state for
	// i >= 1 (index 0 is unused: controller 0 draws from state above).
	// Nil until armed on a multi-controller system.
	ctrlStates []uint64
}

// New returns an injector for the plan.
func New(p Plan) *Injector {
	// splitmix64 of the seed avoids weak low-entropy initial states
	// (seed 0 or small integers).
	return &Injector{plan: p, state: p.Seed ^ 0x9e3779b97f4a7c15}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Arm installs the injector as every PM controller's media fault hook,
// in controller index order. Controller 0 gets the injector itself;
// each further controller gets a thin adapter drawing from that
// controller's disjoint stream, derived here if it is missing
// (existing stream positions are never reset).
func (in *Injector) Arm(sys *machine.System) {
	ctrls := sys.PM.Controllers()
	for len(in.ctrlStates) < len(ctrls) {
		in.ctrlStates = append(in.ctrlStates, streamSeed(in.plan.Seed, len(in.ctrlStates)))
	}
	for i, c := range ctrls {
		if i == 0 {
			c.SetFaultHook(in)
			continue
		}
		c.SetFaultHook(&ctrlHook{in: in, idx: i})
	}
}

// streamSeed derives controller i's initial stream state from the plan
// seed: a splitmix64 finalizer over (seed, index) decorrelates the
// streams even for adjacent seeds and indexes.
func streamSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i)*0xd1342543de82ef95
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ctrlHook adapts the injector to one controller past the first,
// routing its media-write draws to that controller's stream.
type ctrlHook struct {
	in  *Injector
	idx int
}

func (h *ctrlHook) MediaWrite(line mem.Addr, attempt int) pmem.MediaVerdict {
	return h.in.mediaWrite(&h.in.ctrlStates[h.idx], line, attempt)
}

// splitmix advances state by one splitmix64 step: deterministic,
// full-period, seed-robust.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chanceFrom draws a Bernoulli with probability p from the given
// stream. p <= 0 returns without consuming stream state (load-bearing
// for prefix sharing: a plan with a knob off draws nothing for it).
func chanceFrom(state *uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	// 53-bit mantissa draw: exact IEEE, platform-independent.
	return float64(splitmix(state)>>11)/(1<<53) < p
}

// MediaWrite implements pmem.FaultHook for controller 0: consulted once
// per media write attempt, in deterministic event order.
func (in *Injector) MediaWrite(line mem.Addr, attempt int) pmem.MediaVerdict {
	return in.mediaWrite(&in.state, line, attempt)
}

// mediaWrite draws one media-write verdict from the given stream.
func (in *Injector) mediaWrite(state *uint64, line mem.Addr, attempt int) pmem.MediaVerdict {
	var v pmem.MediaVerdict
	if chanceFrom(state, in.plan.MediaDelayProb) {
		v.ExtraCycles = sim.Cycle(in.plan.MediaDelayCycles)
		in.stats.MediaDelays++
	}
	if chanceFrom(state, in.plan.MediaFaultProb) {
		v.Fail = true
		in.stats.MediaFaults++
	}
	return v
}

// CrashImage builds the post-power-failure PM image for the system's
// current state: the durable (accepted) contents, plus whatever subset
// of the unaccepted in-flight writes the fault plan lets land. Call it
// at the crash point (after Abandon). Each call consumes generator
// state: with the same injector, successive calls model distinct
// failure instants. It is CheckpointImage over the system's
// crash-visible state, read in place.
func (in *Injector) CrashImage(sys *machine.System) *mem.Image {
	return in.powerCut(sys.Mem.CrashImage(), sys.PM.Snapshot())
}

// CheckpointImage is CrashImage for the system a checkpoint was
// captured from, at the capture cycle, computed from the checkpoint
// alone: no system is built or restored. It only reads cp, so any
// number of goroutines may draw images from one shared checkpoint,
// each with its own injector.
func (in *Injector) CheckpointImage(cp *machine.Checkpoint) *mem.Image {
	return in.powerCut(cp.Mem.Persistent.Clone(), cp.PM)
}

// powerCut applies the power cut to img, a writable copy of the
// persistent image, given the PM side's crash-visible state, and
// returns img. Every draw comes from the primary stream: one cut point
// in the machine-wide stream of unaccepted writes (the package's fault
// model), then, under TearAccepted, the accepted writes' reverts.
func (in *Injector) powerCut(img *mem.Image, pm *pmem.TopologyState) *mem.Image {
	if ws := pm.Unaccepted; !in.plan.TornPersists {
		in.stats.DroppedLines += uint64(len(ws))
	} else if len(ws) > 0 {
		// Power-cut point in the FIFO submission stream: k writes reach
		// acceptance, write k is mid-transfer and tears per-word, the
		// rest never arrive. The prefix must land in submission order —
		// later same-line writes overwrite earlier ones, as acceptance
		// would have.
		k := int(splitmix(&in.state) % uint64(len(ws)+1))
		for i := 0; i < k; i++ {
			w := &ws[i]
			img.StoreLine(w.Line, &w.Data)
		}
		in.stats.LandedLines += uint64(k)
		if k < len(ws) {
			keep := uint8(0)
			for bit := 0; bit < mem.LineWords; bit++ {
				if !chanceFrom(&in.state, in.plan.DropProb) {
					keep |= 1 << bit
					in.stats.WordsKept++
				} else {
					in.stats.WordsDropped++
				}
			}
			w := &ws[k]
			switch keep {
			case 0:
				in.stats.DroppedLines++
			case (1 << mem.LineWords) - 1:
				in.stats.LandedLines++
				img.StoreLine(w.Line, &w.Data)
			default:
				in.stats.TornLines++
				img.StoreLineMasked(w.Line, &w.Data, keep)
			}
			in.stats.DroppedLines += uint64(len(ws) - k - 1)
		}
	}
	if in.plan.TearAccepted {
		// Beyond-ADR torture: revert a random subset of each accepted
		// undrained line's words to their pre-write contents, over
		// controllers in index order and newest acceptance first within
		// each, so layered writes unwind in order.
		for _, c := range pm.Ctrls {
			acc := c.Accepted
			for i := len(acc) - 1; i >= 0; i-- {
				w := &acc[i]
				revert := uint8(0)
				for bit := 0; bit < mem.LineWords; bit++ {
					if chanceFrom(&in.state, in.plan.DropProb) {
						revert |= 1 << bit
					}
				}
				if revert == 0 {
					continue
				}
				in.stats.AcceptedTorn++
				img.StoreLineMasked(w.Line, &w.Old, revert)
			}
		}
	}
	return img
}

// Presets returns the torture sweep's standard fault plans at the given
// seed, mild to hostile: line-atomic drops, torn persists, and torn
// persists with media faults and latency spikes.
func Presets(seed uint64) []Plan {
	return []Plan{
		{Seed: seed},
		{Seed: seed + 1, TornPersists: true, DropProb: 0.5},
		{
			Seed: seed + 2, TornPersists: true, DropProb: 0.35,
			MediaFaultProb: 0.02, MediaDelayProb: 0.05, MediaDelayCycles: 400,
		},
	}
}
