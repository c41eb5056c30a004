package exec

import (
	"fmt"

	"opsched/internal/hw"
)

// FIFO is the TensorFlow-runtime baseline policy: operations run in
// ready-queue order, every operation uses the same user-chosen intra-op
// parallelism, and at most InterOp operations run concurrently. The paper's
// "Recommendation" baseline is FIFO{InterOp: 1, IntraOp: 68} (one socket,
// one thread per physical core); the TensorFlow default is
// FIFO{InterOp: 272, IntraOp: 272}, which oversubscribes the machine so
// badly the paper reports it more than 10× slower than the recommendation.
type FIFO struct {
	// InterOp is the maximum number of concurrently running operations.
	InterOp int
	// IntraOp is the thread count applied uniformly to every operation.
	IntraOp int
	// Place is the thread placement; the zero value means Shared (the
	// natural layout of consecutive OpenMP thread IDs on KNL tiles).
	Place hw.Placement
	// Pinned binds co-running operations to disjoint cores, as the
	// paper's standalone co-run scripts do (Table III's "co-run with
	// threads control"). Stock TensorFlow leaves this false: concurrent
	// operations' OpenMP pools overlap on the low-numbered cores.
	Pinned bool
}

// Recommendation returns the paper's baseline configuration for machine m:
// inter-op 1 (one socket), intra-op = physical cores.
func Recommendation(m *hw.Machine) *FIFO {
	return &FIFO{InterOp: 1, IntraOp: m.Cores, Place: hw.Shared}
}

// Default returns the TensorFlow default configuration for machine m:
// inter-op and intra-op both equal to the logical core count.
func Default(m *hw.Machine) *FIFO {
	return &FIFO{InterOp: m.LogicalCPUs(), IntraOp: m.LogicalCPUs(), Place: hw.Shared}
}

// Name implements Scheduler.
func (f *FIFO) Name() string {
	return fmt.Sprintf("fifo(inter=%d,intra=%d)", f.InterOp, f.IntraOp)
}

// Schedule implements Scheduler: fill free inter-op slots with ready
// operations in FIFO order.
func (f *FIFO) Schedule(st *State, dst []Decision) []Decision {
	slots := f.InterOp - len(st.Running)
	for i := 0; i < len(st.Ready) && slots > 0; i++ {
		dst = append(dst, Decision{Node: st.Ready[i], Threads: f.IntraOp, Placement: f.Place, Pinned: f.Pinned})
		slots--
	}
	return dst
}
