package exec

import (
	"strings"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/hw"
)

// TestValidateErrorTable covers every rejection path of Decision.Validate
// with the message each one must carry: schedulers debug through these
// strings, so each names the offending field.
func TestValidateErrorTable(t *testing.T) {
	m := hw.NewKNL()
	g := chain(3)
	hosted := []*Running{{Node: 0, Threads: m.Cores, Placement: hw.Shared}}
	cases := []struct {
		name    string
		d       Decision
		running []*Running
		ready   []graph.NodeID
		want    string
	}{
		{"zero threads",
			Decision{Node: 1, Threads: 0, Placement: hw.Shared}, nil, []graph.NodeID{1},
			"has 0 threads"},
		{"negative threads",
			Decision{Node: 1, Threads: -3, Placement: hw.Shared}, nil, []graph.NodeID{1},
			"has -3 threads"},
		{"invalid placement",
			Decision{Node: 1, Threads: 4, Placement: hw.Placement(9)}, nil, []graph.NodeID{1},
			"invalid placement"},
		{"pinned wider than the machine",
			Decision{Node: 1, Threads: m.Cores + 1, Placement: hw.Shared, Pinned: true}, nil, []graph.NodeID{1},
			"pinned decision"},
		{"HT without a host",
			Decision{Node: 1, Threads: 4, Placement: hw.Spread, HT: true}, nil, []graph.NodeID{1},
			"no running host"},
		{"HT with only HT guests running",
			Decision{Node: 1, Threads: 4, Placement: hw.Spread, HT: true},
			[]*Running{{Node: 0, Threads: 4, Placement: hw.Spread, HT: true}}, []graph.NodeID{1},
			"no running host"},
		{"node not ready",
			Decision{Node: 2, Threads: 4, Placement: hw.Shared}, hosted, []graph.NodeID{1},
			"not ready"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &State{Machine: m, Graph: g, Ready: tc.ready, Running: tc.running}
			err := tc.d.Validate(st)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The happy paths stay accepted: a plain decision for a ready node,
	// and an HT decision once a non-HT host is in flight.
	ok := Decision{Node: 1, Threads: 4, Placement: hw.Shared}
	if err := ok.Validate(&State{Machine: m, Graph: g, Ready: []graph.NodeID{1}}); err != nil {
		t.Errorf("valid decision rejected: %v", err)
	}
	ht := Decision{Node: 1, Threads: 4, Placement: hw.Spread, HT: true}
	if err := ht.Validate(&State{Machine: m, Graph: g, Ready: []graph.NodeID{1}, Running: hosted}); err != nil {
		t.Errorf("HT decision with a running host rejected: %v", err)
	}
}

// TestStartAndAdvance: launch prices an operation, tags it with the
// decision's job and adds it to the union and to its job's lane; advance
// retires it at the shared clock, and harvest records it on the job's
// Result and takes it off the lane.
func TestStartAndAdvance(t *testing.T) {
	m := hw.NewKNL()
	g := chain(1)
	l := &loop{m: m, lanes: make([]lane, 4), runs: make([]Result, 4)}
	ln := &l.lanes[3]
	ln.view, ln.name, ln.in = State{Machine: m, Graph: g, Ready: []graph.NodeID{0}}, "c", g.InDegrees()
	if err := l.launch(ln, Decision{Node: 0, Job: 3, Threads: 16, Placement: hw.Shared}); err != nil {
		t.Fatal(err)
	}
	if len(ln.view.Ready) != 0 || len(l.running) != 1 || len(ln.view.Running) != 1 || ln.cores != 16 {
		t.Fatalf("after launch: %d ready, %d running, %d in the lane holding %d cores",
			len(ln.view.Ready), len(l.running), len(ln.view.Running), ln.cores)
	}
	r := l.running[0]
	if r.Job != 3 {
		t.Errorf("running op has job %d, want 3", r.Job)
	}
	recomputeRates(m, l.running)
	done := l.advance()
	if len(done) != 1 || done[0] != r {
		t.Fatalf("advance returned %d completions", len(done))
	}
	if len(l.running) != 0 || l.clockNs <= 0 {
		t.Errorf("after advance: %d running, clock %v", len(l.running), l.clockNs)
	}
	l.harvest(done)
	if res := l.runs[3]; len(ln.view.Running) != 0 || ln.cores != 0 || len(res.Records) != 1 || res.StepTimeNs != l.clockNs {
		t.Errorf("after harvest: %d in the lane holding %d cores, %d records, step %v at clock %v",
			len(ln.view.Running), ln.cores, len(res.Records), res.StepTimeNs, l.clockNs)
	}
	if extra := l.advance(); extra != nil {
		t.Errorf("advance with nothing running returned %d completions", len(extra))
	}
	// Launching a node that is not ready must fail.
	if err := l.launch(ln, Decision{Node: 0, Threads: 16, Placement: hw.Shared}); err == nil {
		t.Error("launch accepted a node missing from the ready queue")
	}
}
