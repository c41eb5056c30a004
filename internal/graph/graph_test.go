package graph

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"opsched/internal/op"
)

func relu(dims ...int) *op.Op { return op.Elementwise(op.Relu, dims...) }

func chainGraph(n int) *Graph {
	g := New("chain")
	prev := g.Add(relu(8, 8), "n0")
	for i := 1; i < n; i++ {
		prev = g.Add(relu(8, 8), "n", prev)
	}
	return g
}

func TestAddAndLookup(t *testing.T) {
	g := New("t")
	a := g.Add(relu(4), "a")
	b := g.Add(relu(4), "b", a)
	if g.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", g.Len())
	}
	if n := g.Node(b); n == nil || n.Name != "b" || len(n.Deps()) != 1 || n.Deps()[0] != a {
		t.Fatalf("Node(b) wrong: %+v", n)
	}
	if n := g.Node(a); len(n.Consumers()) != 1 || n.Consumers()[0] != b {
		t.Fatalf("Consumers(a) wrong: %+v", n.Consumers())
	}
	if g.Node(-1) != nil || g.Node(99) != nil {
		t.Error("out-of-range Node() should be nil")
	}
}

func TestAddPanicsOnForwardReference(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with forward reference did not panic")
		}
	}()
	g := New("t")
	g.Add(relu(4), "bad", NodeID(5))
}

func TestValidate(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Error("empty graph should not validate")
	}
	g := chainGraph(5)
	if err := g.Validate(); err != nil {
		t.Errorf("chain graph invalid: %v", err)
	}
	// Nil op.
	g2 := New("t")
	g2.Add(relu(4), "a")
	g2.nodes[0].Op = nil
	if err := g2.Validate(); err == nil {
		t.Error("nil-op graph should not validate")
	}
	// Invalid op.
	g3 := New("t")
	g3.Add(&op.Op{Kind: "Bogus", Input: op.Dims{1}}, "a")
	if err := g3.Validate(); err == nil {
		t.Error("bad-op graph should not validate")
	}
	// Artificial cycle.
	g4 := chainGraph(3)
	g4.nodes[0].deps = []NodeID{2}
	g4.nodes[2].outs = append(g4.nodes[2].outs, 0)
	if err := g4.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cyclic graph Validate() = %v, want cycle error", err)
	}
}

func TestTopoOrder(t *testing.T) {
	g := New("diamond")
	a := g.Add(relu(4), "a")
	b := g.Add(relu(4), "b", a)
	c := g.Add(relu(4), "c", a)
	d := g.Add(relu(4), "d", b, c)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if !(pos[a] < pos[b] && pos[a] < pos[c] && pos[b] < pos[d] && pos[c] < pos[d]) {
		t.Errorf("topo order %v violates dependencies", order)
	}
}

func TestStatsAndSourcesSinks(t *testing.T) {
	g := New("t")
	a := g.Add(op.Conv(op.Conv2D, 8, 8, 8, 16, 3, 16, 1), "conv")
	b := g.Add(relu(8, 8, 8, 16), "relu", a)
	g.Add(relu(8, 8, 8, 16), "relu2", b)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 2 {
		t.Errorf("Stats = %+v, want 3 nodes 2 edges", s)
	}
	if s.ByKind[op.Relu] != 2 || s.ByKind[op.Conv2D] != 1 {
		t.Errorf("ByKind wrong: %v", s.ByKind)
	}
	if s.Signatures != 2 {
		t.Errorf("Signatures = %d, want 2 (two identical relus)", s.Signatures)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != a {
		t.Errorf("Sources = %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != NodeID(2) {
		t.Errorf("Sinks = %v", snk)
	}
	top := s.TopKinds(1)
	if len(top) != 1 || top[0] != op.Relu {
		t.Errorf("TopKinds = %v, want [Relu]", top)
	}
	if got := s.TopKinds(10); len(got) != 2 {
		t.Errorf("TopKinds(10) = %v, want both kinds", got)
	}
}

func TestWriteDOT(t *testing.T) {
	g := chainGraph(3)
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "n0 -> n1", "n1 -> n2"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// Property: any graph built through Add has a valid topological order of
// exactly Len() nodes (acyclic by construction).
func TestTopoOrderTotalProperty(t *testing.T) {
	f := func(edges []uint16, n8 uint8) bool {
		n := int(n8%30) + 1
		g := New("rand")
		for i := 0; i < n; i++ {
			var deps []NodeID
			if i > 0 && len(edges) > 0 {
				k := int(edges[i%len(edges)]) % 3
				for j := 0; j < k; j++ {
					deps = append(deps, NodeID(int(edges[(i+j)%len(edges)])%i))
				}
			}
			g.Add(relu(2, 2), "n", deps...)
		}
		order, err := g.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := make(map[NodeID]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, nd := range g.Nodes() {
			for _, d := range nd.Deps() {
				if pos[d] >= pos[nd.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSignatureContentKeyed: the signature depends on operation classes and
// structure, not on graph name or instance identity — the property the
// perfmodel profile cache keys on.
func TestSignatureContentKeyed(t *testing.T) {
	build := func(name string) *Graph {
		g := New(name)
		a := g.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1), "conv")
		g.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "relu", a)
		return g
	}
	g1, g2 := build("first"), build("second")
	if g1.Signature() != g2.Signature() {
		t.Errorf("identical content, different signatures: %s vs %s", g1.Signature(), g2.Signature())
	}

	bigger := build("third")
	bigger.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "extra", 1)
	if bigger.Signature() == g1.Signature() {
		t.Error("extra node did not change the signature")
	}

	// Same nodes, different wiring.
	flat := New("flat")
	flat.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 1), "conv")
	flat.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "relu")
	if flat.Signature() == g1.Signature() {
		t.Error("different dependency structure did not change the signature")
	}

	// Same structure, different operation class.
	other := New("other")
	b := other.Add(op.Conv(op.Conv2D, 32, 8, 8, 256, 3, 256, 1), "conv")
	other.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "relu", b)
	if other.Signature() == g1.Signature() {
		t.Error("different operation class did not change the signature")
	}
}

// TestSignatureMemo: the memoized signature keeps the value the profile
// cache has always keyed on, and Add invalidates it.
func TestSignatureMemo(t *testing.T) {
	g := New("memo")
	a := g.Add(op.Conv(op.Conv2D, 32, 8, 8, 128, 3, 128, 2), "conv")
	g.Add(&op.Op{Kind: op.AddN, Input: op.Dims{32, 8, 8, 128}, NumInputs: 3}, "addn", a)
	if got, want := g.Signature(), "g7ae5b5c84d282c77"; got != want {
		t.Fatalf("Signature() = %s, want %s", got, want)
	}
	before := g.Signature()
	g.Add(op.Elementwise(op.Relu, 32, 8, 8, 128), "relu", a)
	if g.Signature() == before {
		t.Error("Add did not invalidate the memoized signature")
	}
	if n := testing.AllocsPerRun(100, func() { g.Signature() }); n != 0 {
		t.Errorf("Signature after first use: %v allocs, want 0", n)
	}
}

// TestValidateMemoClearedByAdd: a graph that validated and then gains a
// node with an unknown-kind operation fails Validate again, and the
// failure is not remembered as a success.
func TestValidateMemoClearedByAdd(t *testing.T) {
	g := chainGraph(4)
	for i := 0; i < 2; i++ {
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate() #%d = %v, want nil", i, err)
		}
	}
	g.Add(&op.Op{Kind: "Bogus", Input: op.Dims{8, 8}}, "bogus", 3)
	for i := 0; i < 2; i++ {
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("Validate() #%d after adding an unknown-kind op = %v, want the bogus node's error", i, err)
		}
	}
}

// TestValidateConcurrent: many goroutines validating one graph at once,
// from cold, agree and race with nothing (run under -race).
func TestValidateConcurrent(t *testing.T) {
	g := chainGraph(64)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := g.Validate(); err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: Validate() = %v", i, err)
		}
	}
}
