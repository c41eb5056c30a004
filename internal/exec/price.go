package exec

import (
	"slices"

	"opsched/internal/graph"
	"opsched/internal/hw"
)

// launchPrice is what the loop derives for an operation at launch: the
// context-free price every recomputeRates rescales, the solo duration and
// the solo memory-bandwidth demand.
type launchPrice struct {
	price  hw.OpPrice
	solo   float64
	demand float64
}

// priceLaunch prices an operation of cost c run with threads threads under
// placement pl on m. It is the one formula behind both a fresh launch and
// a PriceTable entry, which is what keeps the two bit-identical.
func priceLaunch(m *hw.Machine, c hw.OpCost, threads int, pl hw.Placement) launchPrice {
	lp := launchPrice{price: m.Price(c, threads, pl)}
	lp.solo = lp.price.Time(m, hw.Solo())
	if lp.solo > 0 {
		lp.demand = lp.price.Traffic() / lp.solo
	}
	return lp
}

// Launch is one configuration an operation can be launched at.
type Launch struct {
	Threads   int
	Placement hw.Placement
}

// Pricer is implemented by a scheduler whose launch configurations are
// fixed before a run, as a profiled runtime's are. CoRun reads launch
// prices from the table instead of pricing each launch, for the jobs whose
// machine and graph the table was priced for.
type Pricer interface {
	// Prices returns the scheduler's price table, or nil if it has none.
	Prices() *PriceTable
}

// PriceTable holds the launch prices of one graph's operations on one
// machine, at the configurations a scheduler can launch each of them at.
// A table is read-only once built, so runs on any number of goroutines
// may share it.
type PriceTable struct {
	machine hw.Machine
	graph   *graph.Graph  // the priced graph
	sig     string        // its signature
	class   []int32       // index into classes by NodeID; -1 if unpriced
	classes []pricedClass // one per distinct valid cost
}

// pricedClass is the priced configurations of one operation cost.
type pricedClass struct {
	cost    hw.OpCost
	configs []pricedLaunch
}

// pricedLaunch is one configuration with its price.
type pricedLaunch struct {
	Launch
	launchPrice
}

// NewPriceTable prices every node of g on m at each configuration
// launches returns for it; launches may reuse its result's backing array
// between calls. Nodes of equal cost share one set of prices, stored
// contiguously. A node whose cost is invalid is left unpriced, so a launch
// of it takes the fresh path and fails there.
func NewPriceTable(m *hw.Machine, g *graph.Graph, launches func(graph.NodeID) []Launch) *PriceTable {
	t := &PriceTable{machine: *m, graph: g, sig: g.Signature(), class: make([]int32, g.Len())}
	byCost := make(map[hw.OpCost]int32)
	var union [][]Launch // each class's configurations, by class index
	total := 0
	for _, n := range g.Nodes() {
		cost := n.Op.Cost()
		if cost.Validate() != nil {
			t.class[n.ID] = -1
			continue
		}
		ci, ok := byCost[cost]
		if !ok {
			ci = int32(len(t.classes))
			byCost[cost] = ci
			t.classes = append(t.classes, pricedClass{cost: cost})
			union = append(union, nil)
		}
		t.class[n.ID] = ci
		for _, l := range launches(n.ID) {
			if !slices.Contains(union[ci], l) {
				union[ci] = append(union[ci], l)
				total++
			}
		}
	}
	prices := make([]pricedLaunch, 0, total)
	for ci, ls := range union {
		c := &t.classes[ci]
		lo := len(prices)
		for _, l := range ls {
			prices = append(prices, pricedLaunch{l, priceLaunch(m, c.cost, l.Threads, l.Placement)})
		}
		c.configs = prices[lo:len(prices):len(prices)]
	}
	return t
}

// find returns the class's price at (threads, pl), or nil.
func (c *pricedClass) find(threads int, pl hw.Placement) *launchPrice {
	for i := range c.configs {
		if p := &c.configs[i]; p.Threads == threads && p.Placement == pl {
			return &p.launchPrice
		}
	}
	return nil
}

// pricesFor returns the table the loop reads job s's launch prices from
// when it runs g on m: s's own, if s is a Pricer whose table was priced for
// g's signature on a machine equal to m, and nil otherwise.
func pricesFor(s Scheduler, m *hw.Machine, g *graph.Graph) *PriceTable {
	p, ok := s.(Pricer)
	if !ok {
		return nil
	}
	t := p.Prices()
	if t == nil || t.machine != *m || t.sig != g.Signature() {
		return nil
	}
	return t
}

// lookup returns the stored price of node id of g at (threads, pl), or
// nil when the table has none. On the graph the table was priced from, the
// node's cost is the one priced. On another graph with its signature, the
// node's cost is checked against the stored one: a signature does not fix
// every cost term (it omits Op.Window). A nil t has no entries.
func (t *PriceTable) lookup(g *graph.Graph, id graph.NodeID, threads int, pl hw.Placement) *launchPrice {
	if t == nil || t.class[id] < 0 {
		return nil
	}
	c := &t.classes[t.class[id]]
	if g != t.graph && g.Node(id).Op.Cost() != c.cost {
		return nil
	}
	return c.find(threads, pl)
}
