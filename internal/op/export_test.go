package op

import "opsched/internal/hw"

// FreshSignature derives an instance's signature without its memo or the
// intern table.
func FreshSignature(o *Op) string { return o.signature() }

// FreshCost derives an instance's cost without its memo or the intern
// table.
func FreshCost(o *Op) hw.OpCost { return o.cost(o.signature()) }
