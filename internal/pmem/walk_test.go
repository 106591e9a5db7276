package pmem

import (
	"errors"
	"reflect"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// mediaHook is a seeded media-fault hook: each attempt draws a latency
// spike and a transient failure from one splitmix stream.
type mediaHook struct {
	state      uint64
	delay      sim.Cycle
	fail, late uint64 // per-mille chances
}

func (h *mediaHook) next() uint64 {
	h.state += 0x9e3779b97f4a7c15
	z := h.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (h *mediaHook) MediaWrite(mem.Addr, int) MediaVerdict {
	var v MediaVerdict
	if h.next()%1000 < h.late {
		v.ExtraCycles = h.delay
	}
	v.Fail = h.next()%1000 < h.fail
	return v
}

// walkRig is one persistence domain: a topology over its own images,
// optionally with a media hook per controller.
type walkRig struct {
	eng *sim.Engine
	m   *mem.Machine
	t   *Topology
}

func newRig(cfg config.Config, atVisibility bool, hooked bool) *walkRig {
	r := &walkRig{eng: sim.NewEngine(), m: mem.NewMachine()}
	r.t = NewTopology(r.eng, cfg, r.m, atVisibility)
	if hooked {
		for i, c := range r.t.Controllers() {
			c.SetFaultHook(&mediaHook{state: uint64(i + 1), delay: 2100, fail: 300, late: 200})
		}
	}
	return r
}

// drive stands in for the cores: two chains of plain events at seeded
// cycles issue PM line writes, PM and DRAM reads, DRAM write-backs and,
// with words set, words persisted at visibility, over a few hot lines.
// A persisted word lands in the cycle a write of its line arrives,
// before or after the arrival. Neither chain waits for an ack or a
// read, so the stimuli are the same under any media timing.
func (r *walkRig) drive(seed uint64, n int, words bool) {
	for chain := uint64(0); chain < 2; chain++ {
		h := &mediaHook{state: seed + chain<<32}
		left := n
		var step func()
		step = func() {
			for k := h.next() % 3; k < 3; k++ {
				line := pmLine(int(h.next() % 4))
				switch h.next() % 6 {
				case 0, 1:
					r.t.SubmitPMWrite(line, lineData(byte(h.next())), nil)
				case 2:
					r.t.SubmitRead(line, func() {})
				case 3:
					r.t.SubmitRead(mem.Addr(0x4000+64*(h.next()%4)), func() {})
				case 4:
					r.t.SubmitDRAMWrite(mem.Addr(0x8000))
				case 5:
					if !words {
						continue
					}
					// A word of a line persisted at visibility in the
					// cycle a write of that line arrives, before the
					// arrival (scheduled first) or after it.
					addr, v := line+8*mem.Addr(h.next()%8), h.next()
					word := func() { r.t.PersistVisible(addr, v, 8) }
					transit := sim.Cycle(config.Default().PMWriteToControllerCycles)
					if h.next()%2 == 0 {
						r.eng.Schedule(transit, word)
						r.t.SubmitPMWrite(line, lineData(byte(v)), nil)
					} else {
						r.t.SubmitPMWrite(line, lineData(byte(v)), nil)
						r.eng.Schedule(transit, word)
					}
				}
			}
			if left--; left > 0 {
				r.eng.Schedule(sim.Cycle([]uint64{0, 1, 64, 128, 192, 256}[h.next()%6]), step)
			}
		}
		r.eng.Schedule(sim.Cycle(chain), step)
	}
}

// observe records the domain's crash-visible state at each cut, taken
// by events placed before anything else is scheduled, so they fire
// first at their cycles, as a crash cut's pre-spawn event does.
func (r *walkRig) observe(cuts []sim.Cycle) []*TopologyState {
	got := make([]*TopologyState, len(cuts))
	for i, at := range cuts {
		r.eng.ScheduleAt(at, func() { got[i] = r.t.Snapshot() })
	}
	return got
}

// walkCase is a seeded run: its driver seed, controller count,
// persistence point and write-queue depth.
type walkCase struct {
	seed        uint64
	controllers int
	eadr        bool
	queue       int
}

func (wc walkCase) cfg() config.Config {
	cfg := config.Default()
	cfg.PMControllers = wc.controllers
	if wc.queue != 0 {
		cfg.PMWriteQueueEntries = wc.queue
	}
	return cfg
}

var walkCuts = []sim.Cycle{1, 150, 193, 500, 1193, 2000, 4000, 9000}

// run drives a fresh domain to its end, recording its log, and returns
// the states at walkCuts, the end cycle and the final statistics.
func (wc walkCase) run(hooked bool) (*Log, []*TopologyState, sim.Cycle, Stats) {
	r := newRig(wc.cfg(), wc.eadr, hooked)
	log := &Log{}
	r.t.Record(log)
	states := r.observe(walkCuts)
	r.drive(wc.seed, 40, wc.eadr)
	end := r.eng.Run(0)
	return log, states, end, r.t.Stats()
}

// walk walks log onto a fresh domain to each cut, then to its end.
func (wc walkCase) walk(log *Log, hooked, resim bool) ([]*TopologyState, sim.Cycle, Stats, error) {
	r := newRig(wc.cfg(), wc.eadr, hooked)
	w := r.t.Replay(log)
	if resim {
		w = r.t.Resimulate(log)
	}
	var states []*TopologyState
	for _, at := range walkCuts {
		if err := w.To(at); err != nil {
			return nil, 0, Stats{}, err
		}
		states = append(states, r.t.Snapshot())
	}
	end, err := w.Finish()
	return states, end, r.t.Stats(), err
}

var walkCases = []walkCase{
	{seed: 1, controllers: 1},
	{seed: 2, controllers: 2},
	{seed: 3, controllers: 1, eadr: true},
	{seed: 4, controllers: 2, eadr: true},
}

// TestReplayMatchesRecordedRun: a replay of a run's own log, media
// faults armed as they were, stands where the run stood at every cut,
// write-queue overflow included.
func TestReplayMatchesRecordedRun(t *testing.T) {
	for _, wc := range append(walkCases, walkCase{seed: 5, controllers: 2, queue: 2}) {
		log, want, wantEnd, wantStats := wc.run(true)
		got, end, st, err := wc.walk(log, true, false)
		if err != nil {
			t.Fatalf("%+v: %v", wc, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: replayed states differ from the run's", wc)
		}
		if end != wantEnd || !reflect.DeepEqual(st, wantStats) {
			t.Errorf("%+v: replay ends at %d with %+v, run at %d with %+v", wc, end, st, wantEnd, wantStats)
		}
	}
}

// TestResimulateMatchesArmedRun: a media-free run's log, resimulated
// under a media-fault hook, stands where a run armed with that hook
// stood at every cut, and its own events end where that run's did —
// spikes past the timing wheel and retries included.
func TestResimulateMatchesArmedRun(t *testing.T) {
	for _, wc := range walkCases {
		log, _, freeEnd, _ := wc.run(false)
		_, want, wantEnd, wantStats := wc.run(true)
		if wantStats.MediaWriteFaults == 0 || wantStats.MediaFaultDelayCycles == 0 {
			t.Fatalf("%+v: the hook injected no faults: %+v", wc, wantStats)
		}
		got, end, st, err := wc.walk(log, true, true)
		if err != nil {
			t.Fatalf("%+v: %v", wc, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: resimulated states differ from the armed run's", wc)
		}
		if max(end, freeEnd) != wantEnd || !reflect.DeepEqual(st, wantStats) {
			t.Errorf("%+v: resimulation ends at %d with %+v, armed run at %d with %+v", wc, max(end, freeEnd), st, wantEnd, wantStats)
		}
	}
}

// TestResimulateStopsAtFullQueue: a write queue that fills under the
// media faults makes an arrival wait, which would move its ack, so the
// resimulation fails at that arrival.
func TestResimulateStopsAtFullQueue(t *testing.T) {
	wc := walkCase{seed: 6, controllers: 1, queue: 24}
	log, _, _, st := wc.run(false)
	if st.WriteQueueFullEvents != 0 {
		t.Fatalf("the media-free run already waited: %+v", st)
	}
	_, _, _, err := wc.walk(log, true, true)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("resimulation over a filling queue: %v, want ErrDiverged", err)
	}
}
