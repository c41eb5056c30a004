package core

import (
	"reflect"
	"sync"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/nn"
	"opsched/internal/perfmodel"
)

// TestSharedTablesMatchFresh: runtimes profiled on one (machine, graph,
// interval) share their derived tables, and under every configuration the
// shared node plans and per-kind profiles equal the ones the runtime would
// derive for itself. A configuration field missing from the tables key
// would hand a later runtime an earlier one's plans.
func TestSharedTablesMatchFresh(t *testing.T) {
	perfmodel.ResetCache()
	defer perfmodel.ResetCache()
	m := knl()
	g := nn.MustBuild(nn.LSTM).Graph
	s3only := Config{Strategy1: true, Strategy3: true}
	for _, cfg := range []Config{Strategies12(), Strategies123(), AllStrategies(), s3only, {}} {
		rt := New(m, cfg)
		if err := rt.Profile(g); err != nil {
			t.Fatal(err)
		}
		if want := perfmodel.LargestInstanceProfiles(g, rt.store); !reflect.DeepEqual(rt.byKind, want) {
			t.Errorf("%s: shared per-kind profiles differ from a fresh derivation", rt.Name())
		}
		checkPlan(t, rt, g)
		again := New(m, cfg)
		if err := again.Profile(nn.MustBuild(nn.LSTM).Graph); err != nil {
			t.Fatal(err)
		}
		if &again.plan[0] != &rt.plan[0] {
			t.Errorf("%s: a second runtime on an equal graph rebuilt the node plans", rt.Name())
		}
	}
}

// TestPlanMatchesPerOpDerivation: on four training graphs and an inference
// graph, under every Strategy 1-4 combination, each node's
// plan equals the per-operation derivation the scheduling strategies made
// at every event before the plans existed.
func TestPlanMatchesPerOpDerivation(t *testing.T) {
	m := knl()
	graphs := []*graph.Graph{
		nn.MustBuild(nn.ResNet50).Graph, nn.MustBuild(nn.DCGAN).Graph,
		nn.MustBuild(nn.InceptionV3).Graph, nn.MustBuild(nn.LSTM).Graph,
		nn.MustBuildInference(nn.ResNet50, 4).Graph,
	}
	for _, g := range graphs {
		for _, cfg := range strategyConfigs() {
			rt := New(m, cfg)
			if err := rt.Profile(g); err != nil {
				t.Fatal(err)
			}
			checkPlan(t, rt, g)
		}
	}
}

// strategyConfigs returns every combination of Strategies 1-4.
func strategyConfigs() []Config {
	var cfgs []Config
	for bits := 0; bits < 16; bits++ {
		cfgs = append(cfgs, Config{
			Strategy1: bits&1 != 0, Strategy2: bits&2 != 0,
			Strategy3: bits&4 != 0, Strategy4: bits&8 != 0,
		})
	}
	return cfgs
}

// checkPlan asserts that every node plan of rt, profiled on g, equals a
// fresh per-operation derivation.
func checkPlan(t *testing.T, rt *Runtime, g *graph.Graph) {
	t.Helper()
	if len(rt.plan) != g.Len() {
		t.Fatalf("%s on %s: %d node plans for %d nodes", rt.Name(), g.Name, len(rt.plan), g.Len())
	}
	for _, n := range g.Nodes() {
		o := n.Op
		base := rt.baseline()
		base.TimeNs = rt.predictTime(o, base.Threads, base.Placement)
		chosen := rt.chosenConfig(o)
		ht := chosen.Threads
		if ht > rt.machine.Cores {
			ht = rt.machine.Cores
		}
		want := nodePlan{
			tunable:   rt.tunable(o),
			base:      base,
			chosen:    chosen,
			serialNs:  rt.predictTime(o, 1, hw.Spread),
			htThreads: ht,
			guestNs:   rt.predictTime(o, ht, chosen.Placement) / rt.machine.HT2Eff,
		}
		if rt.tablesKey().candidates && want.tunable {
			want.cands = rt.prepareCandidates(o)
		}
		if got := rt.plan[n.ID]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s: node %d (%s) plan %+v, per-op derivation %+v",
				rt.Name(), g.Name, n.ID, o.Signature(), got, want)
		}
	}
}

// TestConcurrentProfileOnSharedGraphs drives the memoized operation
// classes, graph signatures and shared runtime tables from 8 goroutines on
// shared graphs (run under -race), and checks every goroutine got the same
// profile store.
func TestConcurrentProfileOnSharedGraphs(t *testing.T) {
	perfmodel.ResetCache()
	defer perfmodel.ResetCache()
	m := knl()
	var graphs []*graph.Graph
	for _, name := range []string{nn.LSTM, nn.DCGAN} {
		graphs = append(graphs, nn.MustBuild(name).Graph, nn.MustBuildInference(name, 2).Graph)
	}
	const workers = 8
	stores := make([][]*perfmodel.Store, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		stores[w] = make([]*perfmodel.Store, len(graphs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range graphs {
				gi := (i + w) % len(graphs)
				g := graphs[gi]
				for _, n := range g.Nodes() {
					n.Op.Signature()
					n.Op.Cost()
				}
				g.Signature()
				rt := New(m, AllStrategies())
				if err := rt.Profile(g); err != nil {
					t.Error(err)
					return
				}
				stores[w][gi] = rt.Store()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for gi := range graphs {
			if stores[w][gi] != stores[0][gi] {
				t.Errorf("worker %d got a different store for graph %d", w, gi)
			}
		}
	}
	if _, misses := perfmodel.CacheStats(); misses != len(graphs) {
		t.Errorf("profile cache misses = %d, want one per graph (%d)", misses, len(graphs))
	}
}
