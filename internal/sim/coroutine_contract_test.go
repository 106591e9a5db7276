package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The coroutine contract, pinned against a reference. A contract
// program runs one to four coroutines on one engine, each through its
// own list of steps, and a host script drives the engine between
// them. The reference runs the same program on an engine that holds
// only plain Schedule callbacks: a coroutine is a step counter, and its
// resumption a callback that runs steps until one suspends. Both must
// record the same firings at the same cycles and end with the same
// sim.Stats (the reference counts the switches the contract defines:
// resumptions of a live coroutine and aborts of one), and aborting
// every coroutine at the end must leave no goroutine behind.

// contractStep is one instruction of a coroutine or of the host.
type contractStep struct{ kind, arg byte }

// Coroutine steps.
const (
	stepWait      = iota // WaitCycles(waitDelay(arg))
	stepPark             // Park on waiter arg%2
	stepBroadcast        // a plain event, arg/2%8 cycles ahead, broadcasts waiter arg%2
	stepAbort            // a plain event, arg/4%8 cycles ahead, aborts coroutine (self+arg)%n
	stepPanic            // the body panics
	numSteps
)

// Host steps, run between engine runs.
const (
	hostRun       = iota // Run(now+arg), or Run(0) when arg is 0
	hostRunUntil         // RunUntil the trace grows by 1+arg%8 firings, no limit
	hostAbort            // Abort coroutine arg%n
	hostBroadcast        // as stepBroadcast, scheduled by the host
	numHostSteps
)

// waitDelay spreads waits over the same cycle, the near wheel and the
// far heap.
func waitDelay(arg byte) Cycle {
	if arg >= 248 {
		return wheelSpan + Cycle(arg)
	}
	return Cycle(arg % 12)
}

type contractProgram struct {
	cos  [][]contractStep
	host []contractStep
}

// decodeContract reads the coroutine count from the first byte, then
// three bytes per step: who runs it (coroutine index, or n for the
// host), its kind and its argument.
func decodeContract(data []byte) contractProgram {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 4)
	}
	p := contractProgram{cos: make([][]contractStep, n)}
	for i := 1; i+2 < len(data) && i < 1+3*96; i += 3 {
		who, st := int(data[i])%(n+1), contractStep{data[i+1], data[i+2]}
		if who == n {
			st.kind %= numHostSteps
			p.host = append(p.host, st)
			continue
		}
		st.kind %= numSteps
		p.cos[who] = append(p.cos[who], st)
	}
	return p
}

// firing is one trace record.
type firing struct {
	At   Cycle
	Who  int // coroutine index, -1 for a broadcast event
	What byte
	N    int // step index, or waiter index
}

const (
	firedStep      = iota // coroutine Who ran step N
	firedExit             // coroutine Who's body returned or unwound
	firedAbort            // an event or the host aborted coroutine Who
	firedBroadcast        // a plain event broadcast waiter N
)

// contractPanic is the value a panicking step raises.
type contractPanic struct{ Who int }

// contractOutcome is everything a program's run shows.
type contractOutcome struct {
	Trace []firing
	// Panics holds, per host step, the value its run panicked with.
	Panics     []any
	Done       []bool
	Parked     [2]int
	Broadcasts [2]int
	Now        Cycle
	Stats      Stats
}

// catch runs f and returns the value it panicked with, if any.
func catch(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// runLimitFor is a hostRun step's limit.
func runLimitFor(e *Engine, arg byte) Cycle {
	if arg == 0 {
		return 0
	}
	return e.Now() + Cycle(arg)
}

// runHost runs the host script and a final Run(0) through run and
// runUntil, calling step for the other host steps.
func runHost(p contractProgram, e *Engine, out *contractOutcome, step func(st contractStep)) {
	for _, st := range p.host {
		var panicked any
		switch st.kind {
		case hostRun:
			panicked = catch(func() { e.Run(runLimitFor(e, st.arg)) })
		case hostRunUntil:
			mark := len(out.Trace) + 1 + int(st.arg%8)
			panicked = catch(func() { e.RunUntil(func() bool { return len(out.Trace) >= mark }, 0) })
		default:
			step(st)
		}
		out.Panics = append(out.Panics, panicked)
	}
	out.Panics = append(out.Panics, catch(func() { e.Run(0) }))
	out.Now = e.Now()
}

// runContract runs the program on coroutines.
func runContract(p contractProgram) contractOutcome {
	e := NewEngine()
	var out contractOutcome
	rec := func(who int, what byte, n int) {
		out.Trace = append(out.Trace, firing{e.Now(), who, what, n})
	}
	ws := [2]*Waiter{NewWaiter(e), NewWaiter(e)}
	cos := make([]*Coroutine, len(p.cos))
	abort := func(k int) func() {
		return func() {
			rec(k, firedAbort, 0)
			cos[k].Abort()
		}
	}
	broadcast := func(arg byte) (Cycle, func()) {
		w := int(arg % 2)
		return Cycle(arg / 2 % 8), func() {
			rec(-1, firedBroadcast, w)
			ws[w].Broadcast()
		}
	}
	for k, prog := range p.cos {
		k, prog := k, prog
		cos[k] = NewCoroutine(e, func(co *Coroutine) {
			defer rec(k, firedExit, 0)
			for i, st := range prog {
				rec(k, firedStep, i)
				switch st.kind {
				case stepWait:
					co.WaitCycles(waitDelay(st.arg))
				case stepPark:
					ws[st.arg%2].Park(co)
				case stepBroadcast:
					e.Schedule(broadcast(st.arg))
				case stepAbort:
					e.Schedule(Cycle(st.arg/4%8), abort((k+int(st.arg))%len(cos)))
				case stepPanic:
					panic(contractPanic{k})
				}
			}
		})
		e.ScheduleResume(Cycle(k), cos[k])
	}
	runHost(p, e, &out, func(st contractStep) {
		switch st.kind {
		case hostAbort:
			abort(int(st.arg) % len(cos))()
		case hostBroadcast:
			e.Schedule(broadcast(st.arg))
		}
	})
	for i, w := range ws {
		out.Parked[i], out.Broadcasts[i] = w.ParkedCount(), w.Broadcasts()
	}
	for k, co := range cos {
		out.Done = append(out.Done, co.Done())
		abort(k)()
	}
	out.Stats = e.Stats()
	return out
}

// runReference runs the program with plain Schedule callbacks only.
func runReference(p contractProgram) contractOutcome {
	e := NewEngine()
	var out contractOutcome
	rec := func(who int, what byte, n int) {
		out.Trace = append(out.Trace, firing{e.Now(), who, what, n})
	}
	type refCo struct {
		pc            int
		started, done bool
	}
	cos := make([]refCo, len(p.cos))
	var parked [2][]int
	switches := uint64(0)
	abort := func(k int) func() {
		return func() {
			rec(k, firedAbort, 0)
			c := &cos[k]
			if c.done {
				return
			}
			switches++
			c.done = true
			if c.started {
				rec(k, firedExit, 0)
			}
		}
	}
	resume := make([]func(), len(cos))
	broadcast := func(arg byte) (Cycle, func()) {
		w := int(arg % 2)
		return Cycle(arg / 2 % 8), func() {
			rec(-1, firedBroadcast, w)
			if len(parked[w]) == 0 {
				return
			}
			out.Broadcasts[w]++
			for _, k := range parked[w] {
				e.Schedule(0, resume[k])
			}
			parked[w] = nil
		}
	}
	for k := range cos {
		k, prog := k, p.cos[k]
		resume[k] = func() {
			c := &cos[k]
			if c.done {
				return
			}
			switches++
			c.started = true
			for c.pc < len(prog) {
				i, st := c.pc, prog[c.pc]
				c.pc++
				rec(k, firedStep, i)
				switch st.kind {
				case stepWait:
					e.Schedule(waitDelay(st.arg), resume[k])
					return
				case stepPark:
					parked[st.arg%2] = append(parked[st.arg%2], k)
					return
				case stepBroadcast:
					e.Schedule(broadcast(st.arg))
				case stepAbort:
					e.Schedule(Cycle(st.arg/4%8), abort((k+int(st.arg))%len(cos)))
				case stepPanic:
					c.done = true
					rec(k, firedExit, 0)
					panic(contractPanic{k})
				}
			}
			c.done = true
			rec(k, firedExit, 0)
		}
		e.Schedule(Cycle(k), resume[k])
	}
	runHost(p, e, &out, func(st contractStep) {
		switch st.kind {
		case hostAbort:
			abort(int(st.arg) % len(cos))()
		case hostBroadcast:
			e.Schedule(broadcast(st.arg))
		}
	})
	for i := range parked {
		out.Parked[i] = len(parked[i])
	}
	for k := range cos {
		out.Done = append(out.Done, cos[k].done)
		abort(k)()
	}
	out.Stats = e.Stats()
	out.Stats.CoroutineSwitches = switches
	return out
}

// contractSeed encodes a program: n coroutines, then (who, kind, arg)
// triples, who being n for the host.
func contractSeed(n byte, steps ...[3]byte) []byte {
	b := []byte{n - 1}
	for _, s := range steps {
		b = append(b, s[:]...)
	}
	return b
}

// FuzzCoroutineContract holds random coroutine programs to the
// plain-callback reference: waits on the wheel and the far heap, parks
// on two waiters and broadcasts from plain events, aborts of suspended
// coroutines and of the coroutine on whose stack the aborting event
// fires, panicking bodies, and limited runs, RunUntil and several runs
// in a row. After each program the goroutine count is back where it
// started.
func FuzzCoroutineContract(f *testing.F) {
	const host = 4 // who for the host in a 4-coroutine seed
	for _, seed := range [][]byte{
		// Two coroutines interleaving waits, drained by one run.
		contractSeed(2, [3]byte{0, stepWait, 3}, [3]byte{1, stepWait, 2}, [3]byte{0, stepWait, 1},
			[3]byte{1, stepWait, 2}, [3]byte{2, hostRun, 0}),
		// Three parkers woken by a broadcast one of them schedules.
		contractSeed(3, [3]byte{0, stepPark, 0}, [3]byte{1, stepPark, 0}, [3]byte{2, stepBroadcast, 10},
			[3]byte{2, stepPark, 0}, [3]byte{0, stepWait, 1}, [3]byte{3, hostRun, 4}, [3]byte{3, hostRun, 0}),
		// A parked coroutine aborted by an event on another's stack.
		contractSeed(2, [3]byte{0, stepPark, 1}, [3]byte{1, stepAbort, 1}, [3]byte{1, stepWait, 5},
			[3]byte{2, hostRun, 0}),
		// A coroutine aborted by an event on its own stack.
		contractSeed(1, [3]byte{0, stepAbort, 12}, [3]byte{0, stepWait, 10}, [3]byte{0, stepWait, 1},
			[3]byte{1, hostRun, 0}),
		// A panicking body, then another run.
		contractSeed(2, [3]byte{0, stepWait, 2}, [3]byte{0, stepPanic, 0}, [3]byte{1, stepWait, 5},
			[3]byte{1, stepWait, 1}, [3]byte{2, hostRun, 0}, [3]byte{2, hostRun, 0}),
		// Far waits, RunUntil, limited runs, a host abort and a host
		// broadcast.
		contractSeed(4, [3]byte{0, stepWait, 250}, [3]byte{1, stepPark, 1}, [3]byte{2, stepWait, 7},
			[3]byte{3, stepAbort, 1}, [3]byte{2, stepPark, 1}, [3]byte{host, hostRunUntil, 3},
			[3]byte{host, hostRun, 2}, [3]byte{host, hostAbort, 2}, [3]byte{host, hostBroadcast, 1},
			[3]byte{host, hostRun, 3}, [3]byte{host, hostRun, 0}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeContract(data)
		base := runtime.NumGoroutine()
		got, want := runContract(p), runReference(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("coroutines differ from the reference\nprogram: %+v\ngot:  %+v\nwant: %+v", p, got, want)
		}
		// An aborted coroutine's goroutine may exit just after the
		// abort returns; give the count a moment to settle.
		for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after the program, %d before it", n, base)
		}
	})
}
