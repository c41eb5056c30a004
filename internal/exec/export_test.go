package exec

import (
	"opsched/internal/graph"
	"opsched/internal/hw"
)

// PricesFor is the table CoRun reads job s's launch prices from when it
// runs g on m, or nil.
var PricesFor = pricesFor

// Priced reports whether t holds the price of node id of g at
// (threads, pl).
func (t *PriceTable) Priced(g *graph.Graph, id graph.NodeID, threads int, pl hw.Placement) bool {
	return t.lookup(g, id, threads, pl) != nil
}
