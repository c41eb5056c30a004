package core

import (
	"slices"
	"strings"
	"testing"

	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/nn"
)

// appendChecker wraps a scheduler and, at every scheduling event of the
// step exec.Run walks, checks the append contract: Schedule(st, prefix)
// returns prefix unchanged with Schedule(st, nil)'s decisions after it.
type appendChecker struct {
	exec.Scheduler
	t      *testing.T
	events int
}

func (c *appendChecker) Schedule(st *exec.State, dst []exec.Decision) []exec.Decision {
	want := c.Scheduler.Schedule(st, nil)
	prefix := []exec.Decision{{Node: -1, Threads: 3}, {Node: -2, HT: true}}
	// Spare capacity, so a scheduler that wrote over dst would be seen.
	buf := append(make([]exec.Decision, 0, len(prefix)+len(want)+4), prefix...)
	got := c.Scheduler.Schedule(st, buf)
	if len(got) < len(prefix) || !slices.Equal(got[:len(prefix)], prefix) {
		c.t.Fatalf("%s with %d ready, %d running: prefix %v came back as %v", c.Name(), len(st.Ready), len(st.Running), prefix, got)
	}
	if tail := got[len(prefix):]; !slices.Equal(tail, want) {
		c.t.Fatalf("%s with %d ready, %d running: appended %v, Schedule(st, nil) gives %v", c.Name(), len(st.Ready), len(st.Running), tail, want)
	}
	c.events++
	return c.Scheduler.Schedule(st, dst)
}

// TestScheduleAppendContract walks a real ResNet-50 step under exec.FIFO
// and under the runtime in every Strategy 1-4 combination,
// checking the append contract at every scheduling event.
func TestScheduleAppendContract(t *testing.T) {
	m := knl()
	g := nn.MustBuild(nn.ResNet50).Graph
	scheds := []exec.Scheduler{exec.Recommendation(m), exec.Default(m), &exec.FIFO{InterOp: 4, IntraOp: 16, Pinned: true}}
	for _, cfg := range strategyConfigs() {
		rt := New(m, cfg)
		if err := rt.Profile(g); err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, rt)
	}
	for _, s := range scheds {
		c := &appendChecker{Scheduler: s, t: t}
		if _, err := exec.Run(g, c, m); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if c.events == 0 {
			t.Errorf("%s: the step made no scheduling events", s.Name())
		}
	}
}

// allocChecker wraps a runtime and, at every scheduling event, counts
// what Schedule allocates when handed a buffer with room.
type allocChecker struct {
	*Runtime
	t   *testing.T
	buf []exec.Decision
}

func (c *allocChecker) Schedule(st *exec.State, dst []exec.Decision) []exec.Decision {
	if n := testing.AllocsPerRun(2, func() { c.buf = c.Runtime.Schedule(st, c.buf[:0]) }); n != 0 {
		c.t.Fatalf("%s with %d ready, %d running: Schedule allocates %v objects with a reused buffer, want 0", c.Name(), len(st.Ready), len(st.Running), n)
	}
	return c.Runtime.Schedule(st, dst)
}

// TestScheduleAllocationFree: at every event of a real step, under each
// strategy set that reaches a different scheduling path, Runtime.Schedule
// with a reused buffer allocates nothing.
func TestScheduleAllocationFree(t *testing.T) {
	m := knl()
	for _, name := range []string{nn.ResNet50, nn.InceptionV3} {
		g := nn.MustBuild(name).Graph
		for _, cfg := range []Config{{}, Strategies12(), Strategies123(), AllStrategies()} {
			rt := New(m, cfg)
			if err := rt.Profile(g); err != nil {
				t.Fatal(err)
			}
			if _, err := exec.Run(g, &allocChecker{Runtime: rt, t: t}, m); err != nil {
				t.Fatalf("%s: %v", rt.Name(), err)
			}
		}
	}
}

// TestScheduleRejectsForeignGraph: the runtime's node plans are indexed by
// NodeID, so scheduling a graph other than the profiled one (or one with
// its signature) panics with a message naming both graphs, as does
// scheduling before Profile. An independently built copy of the profiled
// graph schedules normally.
func TestScheduleRejectsForeignGraph(t *testing.T) {
	m := knl()
	rt := New(m, AllStrategies())
	wantPanic(t, "before Profile", func() {
		rt.Schedule(&exec.State{Machine: m, Graph: nn.MustBuild(nn.LSTM).Graph, Ready: []graph.NodeID{0}}, nil)
	})
	if err := rt.Profile(nn.MustBuild(nn.LSTM).Graph); err != nil {
		t.Fatal(err)
	}
	copyOf := nn.MustBuild(nn.LSTM).Graph
	if ds := rt.Schedule(&exec.State{Machine: m, Graph: copyOf, Ready: []graph.NodeID{0}}, nil); len(ds) != 1 {
		t.Errorf("an equal graph got %d decisions, want 1", len(ds))
	}
	for _, other := range []*graph.Graph{nn.MustBuild(nn.DCGAN).Graph, nn.MustBuildInference(nn.LSTM, 2).Graph} {
		last := graph.NodeID(other.Len() - 1)
		wantPanic(t, "profiled on graph", func() {
			rt.Schedule(&exec.State{Machine: m, Graph: other, Ready: []graph.NodeID{last}}, nil)
		})
	}
}

// wantPanic runs f and checks it panics with a message containing want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}
