package backend

import (
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
)

// nonAtomicPlan drops every logging-order requirement: logs and
// in-place updates race to PM.
var nonAtomicPlan = OrderingPlan{
	BeginPair:   isa.OpNone,
	LogToUpdate: isa.OpNone,
	CommitOrder: isa.OpNone,
	RegionEnd:   isa.OpNone,
	Durable:     isa.OpNone,
}

func init() {
	// NonAtomic is the Intel persist path with every logging-order
	// requirement dropped (the plan below): logs and in-place updates
	// race to PM. It is the performance upper bound among the flushing
	// designs and is not crash-consistent. SFENCE remains available so
	// workloads that issue it explicitly still run.
	register(hwdesign.NonAtomic, nonAtomicPlan, func(d Deps) Backend {
		return newFlushBackend(hwdesign.NonAtomic, d)
	})
}
