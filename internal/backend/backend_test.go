package backend_test

import (
	"errors"
	"strings"
	"testing"

	"strandweaver/internal/backend"
	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"

	"strandweaver/internal/cpu"
)

// orderingOps is every ordering primitive a workload can issue through
// the core's public API, paired with the issuing call.
var orderingOps = []struct {
	kind  isa.OpKind
	issue func(c *cpu.Core) error
}{
	{isa.OpSFence, func(c *cpu.Core) error { return c.SFence() }},
	{isa.OpPersistBarrier, func(c *cpu.Core) error { return c.PersistBarrier() }},
	{isa.OpNewStrand, func(c *cpu.Core) error { return c.NewStrand() }},
	{isa.OpJoinStrand, func(c *cpu.Core) error { return c.JoinStrand() }},
	{isa.OpOFence, func(c *cpu.Core) error { return c.OFence() }},
	{isa.OpDFence, func(c *cpu.Core) error { return c.DFence() }},
}

// available is the primitive availability matrix: which ordering
// primitives each hardware design accepts. Everything else must return
// ErrPrimitiveUnavailable — never panic.
var available = map[hwdesign.Design]map[isa.OpKind]bool{
	hwdesign.IntelX86: {isa.OpSFence: true},
	hwdesign.HOPS:     {isa.OpOFence: true, isa.OpDFence: true},
	hwdesign.NoPersistQueue: {
		isa.OpPersistBarrier: true, isa.OpNewStrand: true, isa.OpJoinStrand: true,
	},
	hwdesign.StrandWeaver: {
		isa.OpPersistBarrier: true, isa.OpNewStrand: true, isa.OpJoinStrand: true,
	},
	hwdesign.NonAtomic: {isa.OpSFence: true},
	hwdesign.EADR: {
		isa.OpSFence: true, isa.OpPersistBarrier: true, isa.OpNewStrand: true,
		isa.OpJoinStrand: true, isa.OpOFence: true, isa.OpDFence: true,
	},
}

func TestAvailabilityMatrixCoversAllDesigns(t *testing.T) {
	if len(available) != len(hwdesign.All) {
		t.Fatalf("matrix covers %d designs, hwdesign.All has %d", len(available), len(hwdesign.All))
	}
	for _, d := range hwdesign.All {
		if _, ok := available[d]; !ok {
			t.Errorf("matrix missing design %s", d)
		}
		if _, err := backend.PlanFor(d); err != nil {
			t.Errorf("no backend registered for design %s: %v", d, err)
		}
	}
}

// TestPrimitiveAvailabilityMatrix drives every ordering primitive on
// every design through the public core API: available primitives
// succeed, unavailable ones return ErrPrimitiveUnavailable naming the
// design and primitive, and nothing panics.
func TestPrimitiveAvailabilityMatrix(t *testing.T) {
	for _, d := range hwdesign.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			sys := machine.MustNew(config.Default(), d)
			var failed bool
			sys.Spawn(0, func(c *cpu.Core) {
				for _, op := range orderingOps {
					// Give each primitive a persist to order, so the
					// success path exercises the real machinery.
					c.Store64(mem.PMBase, uint64(op.kind)+1)
					c.CLWB(mem.PMBase)
					err := op.issue(c)
					if available[d][op.kind] {
						if err != nil {
							t.Errorf("%s on %s: unexpected error %v", op.kind, d, err)
							failed = true
						}
					} else {
						var unavail *backend.ErrPrimitiveUnavailable
						if !errors.As(err, &unavail) {
							t.Errorf("%s on %s: error %v, want ErrPrimitiveUnavailable", op.kind, d, err)
							failed = true
							continue
						}
						if unavail.Design != d || unavail.Op != op.kind {
							t.Errorf("%s on %s: error reports %s/%s", op.kind, d, unavail.Design, unavail.Op)
							failed = true
						}
					}
				}
				c.DrainAll()
			})
			sys.Eng.Run(10_000_000)
			if failed {
				t.FailNow()
			}
		})
	}
}

// TestIssueRejectsNonOrderingOps: the plan-driven Issue entry point must
// reject loads/stores/compute without panicking, and accept OpNone as a
// free no-op.
func TestIssueRejectsNonOrderingOps(t *testing.T) {
	sys := machine.MustNew(config.Default(), hwdesign.StrandWeaver)
	sys.Spawn(0, func(c *cpu.Core) {
		if err := c.Issue(isa.OpNone); err != nil {
			t.Errorf("Issue(OpNone) = %v, want nil", err)
		}
		for _, k := range []isa.OpKind{isa.OpLoad, isa.OpStore, isa.OpCLWB, isa.OpRMW, isa.OpCompute} {
			if err := c.Issue(k); err == nil {
				t.Errorf("Issue(%s) accepted a non-ordering op", k)
			}
		}
	})
	sys.Eng.Run(1_000_000)
}

// TestNewUnknownDesign: constructing a backend for an unregistered
// design is an error, not a panic, and it matches the typed
// ErrUnknownDesign sentinel from both New and PlanFor.
func TestNewUnknownDesign(t *testing.T) {
	_, err := backend.New(hwdesign.Design(250), backend.Deps{})
	if err == nil {
		t.Fatal("backend.New accepted an unregistered design")
	}
	if !errors.Is(err, backend.ErrUnknownDesign) {
		t.Errorf("New err = %v, want ErrUnknownDesign", err)
	}
	if _, err := backend.PlanFor(hwdesign.Design(250)); !errors.Is(err, backend.ErrUnknownDesign) {
		t.Errorf("PlanFor err = %v, want ErrUnknownDesign", err)
	}
	if _, err := backend.PlanFor(hwdesign.StrandWeaver); err != nil {
		t.Errorf("PlanFor(StrandWeaver) = %v, want nil", err)
	}
}

// TestPlansAreSelfAvailable: every primitive a design's ordering plan
// names must be available on that design (or OpNone), so the undo-log
// emitters can never fail.
func TestPlansAreSelfAvailable(t *testing.T) {
	for _, d := range hwdesign.All {
		sys := machine.MustNew(config.Default(), d)
		plan := sys.Cores[0].OrderingPlan()
		for _, k := range []isa.OpKind{plan.BeginPair, plan.LogToUpdate, plan.CommitOrder, plan.RegionEnd, plan.Durable} {
			if k == isa.OpNone {
				continue
			}
			if !available[d][k] {
				t.Errorf("%s: plan names %s, which the design does not accept", d, k)
			}
		}
	}
}

// TestEADRPersistsAtVisibility: under eADR the caches are inside the
// persistence domain, so a plain store's data must reach the persistent
// image as soon as it drains from the store queue — no CLWB, no fence.
func TestEADRPersistsAtVisibility(t *testing.T) {
	sys := machine.MustNew(config.Default(), hwdesign.EADR)
	addr := mem.PMBase + 0x80
	sys.Spawn(0, func(c *cpu.Core) {
		c.Store64(addr, 42)
		c.DrainAll() // drains the store queue only: no persist machinery exists
		if got := sys.Mem.Persistent.Read64(addr); got != 42 {
			t.Errorf("persistent image = %d after store visibility, want 42", got)
		}
	})
	sys.Eng.Run(1_000_000)
}

// TestEADRBarriersAreFree: on eADR every ordering primitive completes
// without stalling the front-end.
func TestEADRBarriersAreFree(t *testing.T) {
	sys := machine.MustNew(config.Default(), hwdesign.EADR)
	sys.Spawn(0, func(c *cpu.Core) {
		c.Store64(mem.PMBase, 7)
		c.CLWB(mem.PMBase)
		for _, op := range orderingOps {
			if err := op.issue(c); err != nil {
				t.Errorf("%s on eADR: %v", op.kind, err)
			}
		}
		// Read stalls before DrainAll: draining the store queue itself
		// legitimately stalls, but no barrier above may have.
		if st := c.Stats().StallFenceCycles; st != 0 {
			t.Errorf("eADR barriers stalled the front-end for %d cycles", st)
		}
		c.DrainAll()
	})
	sys.Eng.Run(1_000_000)
}

func TestErrPrimitiveUnavailableMessage(t *testing.T) {
	err := &backend.ErrPrimitiveUnavailable{Design: hwdesign.IntelX86, Op: isa.OpPersistBarrier}
	msg := err.Error()
	for _, want := range []string{hwdesign.IntelX86.String(), isa.OpPersistBarrier.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
