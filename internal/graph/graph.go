// Package graph implements the dataflow graph abstraction of TensorFlow-style
// ML frameworks: a directed acyclic graph whose nodes are operation
// instances and whose edges are data/control dependencies. An operation is
// ready to run as soon as all of its dependencies have finished; which ready
// operation runs next, with how many threads, is the scheduler's decision —
// the graph only defines legality.
package graph

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"opsched/internal/op"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0,
// in insertion order.
type NodeID int

// Node is one operation instance in the dataflow graph.
type Node struct {
	ID   NodeID
	Name string
	Op   *op.Op

	deps []NodeID // nodes this one waits for
	outs []NodeID // nodes waiting for this one
}

// Deps returns the node's dependencies. The slice is shared; callers must
// not modify it.
func (n *Node) Deps() []NodeID { return n.deps }

// Consumers returns the nodes that depend on this one. The slice is shared;
// callers must not modify it.
func (n *Node) Consumers() []NodeID { return n.outs }

// Graph is a dataflow graph under construction or execution. It is not
// safe for concurrent mutation.
type Graph struct {
	Name  string
	nodes []*Node

	sig   atomic.Pointer[string] // memoized Signature; Add clears it
	valid atomic.Bool            // a Validate succeeded; Add clears it
}

// New returns an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Add appends an operation node depending on deps and returns its ID.
// Dependencies must already exist; Add panics on a forward reference, which
// also guarantees the graph is acyclic by construction.
func (g *Graph) Add(o *op.Op, name string, deps ...NodeID) NodeID {
	id := NodeID(len(g.nodes))
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("graph: node %q depends on %d, not yet defined (have %d nodes)", name, d, id))
		}
	}
	n := &Node{ID: id, Name: name, Op: o, deps: append([]NodeID(nil), deps...)}
	g.nodes = append(g.nodes, n)
	g.sig.Store(nil)
	g.valid.Store(false)
	for _, d := range deps {
		p := g.nodes[d]
		p.outs = append(p.outs, id)
	}
	return id
}

// Node returns the node with the given ID, or nil if out of range.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Nodes returns all nodes in insertion order. The slice is shared; callers
// must not modify it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Signature returns a content fingerprint of the graph: the operation class
// of every node plus the dependency structure, independent of the graph's
// name and of which Graph instance holds the nodes. Two independently built
// copies of the same workload share a signature — what keys the perfmodel
// profile cache across sweep workers. It is computed once per graph and
// safe for concurrent use.
func (g *Graph) Signature() string {
	if s := g.sig.Load(); s != nil {
		return *s
	}
	h := fnv.New64a()
	b := strconv.AppendInt(append(make([]byte, 0, 256), "n="...), int64(len(g.nodes)), 10)
	h.Write(append(b, ';'))
	for _, n := range g.nodes {
		b = append(append(b[:0], n.Op.Signature()...), '<')
		for _, d := range n.deps {
			b = append(strconv.AppendInt(b, int64(d), 10), ',')
		}
		h.Write(append(b, ';'))
	}
	s := fmt.Sprintf("g%016x", h.Sum64())
	g.sig.Store(&s)
	return s
}

// Validate checks structural invariants: every node has a valid operation
// and in-range dependencies. (Acyclicity holds by construction; Validate
// re-verifies it for graphs assembled by other means.) A success is
// remembered until the next Add, so validating a graph again — every
// co-run does — costs nothing; like Signature and Op.Cost, this relies on
// operations not being mutated after Add. Validate is safe for concurrent
// use.
func (g *Graph) Validate() error {
	if g.valid.Load() {
		return nil
	}
	if g.Len() == 0 {
		return errors.New("graph: empty graph")
	}
	for _, n := range g.nodes {
		if n.Op == nil {
			return fmt.Errorf("graph: node %d (%s) has nil op", n.ID, n.Name)
		}
		if err := n.Op.Validate(); err != nil {
			return fmt.Errorf("graph: node %d (%s): %w", n.ID, n.Name, err)
		}
		for _, d := range n.deps {
			if d < 0 || int(d) >= g.Len() {
				return fmt.Errorf("graph: node %d (%s) depends on out-of-range %d", n.ID, n.Name, d)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	g.valid.Store(true)
	return nil
}

// InDegrees returns the dependency count of every node, indexed by NodeID.
func (g *Graph) InDegrees() []int {
	in := make([]int, g.Len())
	for _, n := range g.nodes {
		in[n.ID] = len(n.deps)
	}
	return in
}

// TopoOrder returns a topological order of the node IDs, or an error if the
// graph contains a cycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	in := g.InDegrees()
	queue := make([]NodeID, 0, g.Len())
	for id, d := range in {
		if d == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	order := make([]NodeID, 0, g.Len())
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, c := range g.nodes[id].outs {
			in[c]--
			if in[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != g.Len() {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(order), g.Len())
	}
	return order, nil
}

// KindCount maps an operation kind to how many node instances of it the
// graph contains.
type KindCount map[op.Kind]int

// Stats summarizes the operation mix of the graph.
type Stats struct {
	Nodes      int
	Edges      int
	ByKind     KindCount
	Signatures int // distinct (kind, shape) classes
}

// Stats computes the operation-mix summary.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.Len(), ByKind: make(KindCount)}
	sigs := make(map[string]struct{})
	for _, n := range g.nodes {
		s.Edges += len(n.deps)
		s.ByKind[n.Op.Kind]++
		sigs[n.Op.Signature()] = struct{}{}
	}
	s.Signatures = len(sigs)
	return s
}

// Sinks returns the nodes with no consumers.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if len(n.outs) == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// Sources returns the nodes with no dependencies.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if len(n.deps) == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// WriteDOT renders the graph in Graphviz DOT format, one node per
// operation, for inspection of the generated training steps.
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n", g.Name); err != nil {
		return err
	}
	for _, n := range g.nodes {
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", n.ID, fmt.Sprintf("%s\\n%s", n.Name, n.Op.Kind)); err != nil {
			return err
		}
	}
	for _, n := range g.nodes {
		for _, d := range n.deps {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", d, n.ID); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// TopKinds returns the k operation kinds with the largest node counts,
// most frequent first (ties broken by kind name for determinism).
func (s Stats) TopKinds(k int) []op.Kind {
	kinds := make([]op.Kind, 0, len(s.ByKind))
	for kind := range s.ByKind {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if s.ByKind[kinds[i]] != s.ByKind[kinds[j]] {
			return s.ByKind[kinds[i]] > s.ByKind[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	if k < len(kinds) {
		kinds = kinds[:k]
	}
	return kinds
}
