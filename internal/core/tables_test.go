package core

import (
	"reflect"
	"sync"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/nn"
	"opsched/internal/perfmodel"
)

// TestSharedTablesMatchFresh: runtimes profiled on one (machine, graph,
// interval) share their derived tables, and under every configuration the
// shared candidate lists and per-kind profiles equal the ones the runtime
// would derive for itself. A configuration field missing from the tables
// key would hand a later runtime an earlier one's lists.
func TestSharedTablesMatchFresh(t *testing.T) {
	perfmodel.ResetCache()
	defer perfmodel.ResetCache()
	m := knl()
	g := nn.MustBuild(nn.LSTM).Graph
	retune := AllStrategies()
	retune.RetuneAll = true
	wide := Strategies123()
	wide.Candidates, wide.MaxThreadDelta = 5, 6
	s3only := Config{Strategy1: true, Strategy3: true}
	for _, cfg := range []Config{Strategies12(), AllStrategies(), retune, wide, s3only, {}} {
		rt := New(m, cfg)
		if err := rt.Profile(g); err != nil {
			t.Fatal(err)
		}
		if want := perfmodel.LargestInstanceProfiles(g, rt.store); !reflect.DeepEqual(rt.byKind, want) {
			t.Errorf("%s: shared per-kind profiles differ from a fresh derivation", rt.Name())
		}
		if !rt.tablesKey().candidates {
			if rt.cands != nil {
				t.Errorf("%s: candidate lists built though Strategy 3 cannot run", rt.Name())
			}
			continue
		}
		for _, n := range g.Nodes() {
			if !rt.tunable(n.Op) {
				continue
			}
			got, _ := rt.candidates(n.Op)
			if want := rt.prepareCandidates(n.Op); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s candidates %v, fresh %v", rt.Name(), n.Op.Signature(), got, want)
			}
		}
		again := New(m, cfg)
		if err := again.Profile(nn.MustBuild(nn.LSTM).Graph); err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(again.cands).Pointer() != reflect.ValueOf(rt.cands).Pointer() {
			t.Errorf("%s: a second runtime on an equal graph rebuilt the candidate lists", rt.Name())
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
