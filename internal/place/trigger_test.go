package place

import (
	"slices"
	"strings"
	"testing"
)

// peer is node 1's state in a trigger case.
type peer int

const (
	peerIdle   peer = iota // node 1 has no wave and no queue
	peerQueued             // node 1 has staged work
	peerWave               // node 1 runs a wave with nothing staged
)

// triggerCase is hand-built engine state for one trigger: node 0 runs a
// wave whose current round ends at roundEnd and which drains at drain,
// node 1 is idle or busy, and one job arrives on a node. The case arms one
// trigger and checks whether the arrival cuts the wave.
type triggerCase struct {
	name       string
	trig       trigger
	residents  []int   // wave priorities on node 0; nil leaves it idle
	roundEnd   float64 // node 0's wave: current round end and drain
	drain      float64
	alreadyCut bool
	peer       peer
	node       int     // the arrival's node
	arrival    JobSpec // model defaults to lstm
	at         float64
	readyNs    float64
	workNs     float64 // the arrival's remaining work
	want       bool
}

func TestPriorityArrivalFires(t *testing.T) {
	runTriggerCases(t, []triggerCase{
		// priority: the arrival must strictly outrank every resident.
		{name: "priority outranks every resident", trig: triggerPriority, residents: []int{0, 1},
			roundEnd: 10, drain: 100, arrival: JobSpec{Priority: 2}, at: 5, want: true},
		{name: "priority tied with a resident", trig: triggerPriority, residents: []int{0, 1},
			roundEnd: 10, drain: 100, arrival: JobSpec{Priority: 1}, at: 5},
		{name: "priority on an idle node", trig: triggerPriority, residents: []int{0, 1},
			roundEnd: 10, drain: 100, node: 1, arrival: JobSpec{Priority: 9}, at: 5},
		{name: "priority against a final round", trig: triggerPriority, residents: []int{0},
			roundEnd: 100, drain: 100, arrival: JobSpec{Priority: 9}, at: 5},
		{name: "priority staging past the boundary", trig: triggerPriority, residents: []int{0},
			roundEnd: 10, drain: 100, arrival: JobSpec{Priority: 9}, at: 5, readyNs: 11},
		{name: "priority against a wave already cut", trig: triggerPriority, residents: []int{0},
			roundEnd: 10, drain: 10, alreadyCut: true, arrival: JobSpec{Priority: 9}, at: 5},
	})
}

func TestDeadlineAtRiskFiresOnlyWhenCutHelps(t *testing.T) {
	runTriggerCases(t, []triggerCase{
		// deadline: the drain (100) + work (30) = 130 misses 60; the
		// boundary (20) + 30 = 50 makes it.
		{name: "deadline at risk", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{DeadlineNs: 60}, at: 5, readyNs: 5, workNs: 30, want: true},
		{name: "deadline survives the drain", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{DeadlineNs: 200}, at: 5, readyNs: 5, workNs: 30},
		{name: "deadline hopeless even after a cut", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{DeadlineNs: 40}, at: 5, readyNs: 5, workNs: 30},
		{name: "no deadline", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			at: 5, readyNs: 5, workNs: 30},
		{name: "deadline staging past the boundary", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{DeadlineNs: 60}, at: 5, readyNs: 45, workNs: 30},
		{name: "deadline on an idle node", trig: triggerDeadline, residents: []int{0}, roundEnd: 20, drain: 100,
			node: 1, arrival: JobSpec{DeadlineNs: 60}, at: 5, readyNs: 5, workNs: 30},
	})
}

func TestSLOAtRiskFiresOnlyWhenCutHelps(t *testing.T) {
	runTriggerCases(t, []triggerCase{
		// slo-at-risk: the request's deadline is at + SLO = 5 + 55 = 60.
		{name: "slo at risk", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{Class: ClassInference, SLONs: 55}, at: 5, readyNs: 5, workNs: 30, want: true},
		{name: "slo survives the drain", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{Class: ClassInference, SLONs: 195}, at: 5, readyNs: 5, workNs: 30},
		{name: "slo hopeless even after a cut", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{Class: ClassInference, SLONs: 35}, at: 5, readyNs: 5, workNs: 30},
		{name: "slo ignores a training deadline", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{DeadlineNs: 60}, at: 5, readyNs: 5, workNs: 30},
		{name: "slo without an objective", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{Class: ClassInference}, at: 5, readyNs: 5, workNs: 30},
		{name: "slo staging past the boundary", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			arrival: JobSpec{Class: ClassInference, SLONs: 55}, at: 5, readyNs: 25, workNs: 30},
		{name: "slo on an idle node", trig: triggerSLO, residents: []int{0}, roundEnd: 20, drain: 100,
			node: 1, arrival: JobSpec{Class: ClassInference, SLONs: 55}, at: 5, readyNs: 5, workNs: 30},
	})
}

func TestLoadImbalanceNeedsIdleNodeAndWaveTail(t *testing.T) {
	runTriggerCases(t, []triggerCase{
		// load: a wave tail past the boundary and another node idle.
		{name: "load with an idle peer", trig: triggerLoad, residents: []int{0}, roundEnd: 20, drain: 100,
			at: 5, want: true},
		{name: "load against a final round", trig: triggerLoad, residents: []int{0}, roundEnd: 100, drain: 100,
			at: 5},
		{name: "load with a queued peer", trig: triggerLoad, residents: []int{0}, roundEnd: 20, drain: 100,
			peer: peerQueued, at: 5},
		{name: "load with a running peer", trig: triggerLoad, residents: []int{0}, roundEnd: 20, drain: 100,
			peer: peerWave, at: 5},
	})
}

func runTriggerCases(t *testing.T, cases []triggerCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(Cluster{Nodes: 2}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			admit := func(sp JobSpec) int {
				if sp.Model == "" {
					sp.Model = "lstm"
				}
				ji, err := e.Admit(sp)
				if err != nil {
					t.Fatal(err)
				}
				return ji
			}
			var w *waveState
			if tc.residents != nil {
				w = &waveState{roundEndNs: tc.roundEnd, drainNs: tc.drain, cut: tc.alreadyCut}
				for _, p := range tc.residents {
					w.active = append(w.active, admit(JobSpec{Priority: p, Steps: 4}))
				}
				pokeNode(e, 0, func(ns *nodeState) { ns.wave = w })
			}
			switch tc.peer {
			case peerQueued:
				queued := admit(JobSpec{})
				pokeNode(e, 1, func(ns *nodeState) { ns.queue = []int{queued} })
			case peerWave:
				running := admit(JobSpec{})
				pokeNode(e, 1, func(ns *nodeState) {
					ns.wave = &waveState{active: []int{running}, roundEndNs: 20, drainNs: 20}
				})
			}
			ji := admit(tc.arrival)
			r := e.job(ji)
			r.readyNs, r.stepWork = tc.readyNs, tc.workNs
			e.triggers = []trigger{tc.trig}
			e.fireTriggers(ji, tc.node, tc.at)
			if got := e.firings == 1; got != tc.want {
				t.Fatalf("fired %v (%d firings), want %v", got, e.firings, tc.want)
			}
			if tc.want && (!w.cut || w.drainNs != tc.roundEnd) {
				t.Errorf("fired without cutting the wave at its boundary: cut %v, drain %v", w.cut, w.drainNs)
			}
			if !tc.want && w != nil && !tc.alreadyCut && (w.cut || w.drainNs != tc.drain) {
				t.Errorf("held fire but the wave changed: cut %v, drain %v", w.cut, w.drainNs)
			}
		})
	}
}

// TestOneFiringPerCut: with two armed triggers that would both fire, the
// wave is cut once and counted once, and a second evaluation against the
// cut wave counts nothing.
func TestOneFiringPerCut(t *testing.T) {
	e, err := NewEngine(Cluster{Nodes: 2}, Options{Preempt: "load+priority"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Admit(JobSpec{Model: "lstm", Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	pokeNode(e, 0, func(ns *nodeState) {
		ns.wave = &waveState{active: []int{res}, roundEndNs: 20, drainNs: 100}
	})
	ji, err := e.Admit(JobSpec{Model: "lstm", Priority: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.fireTriggers(ji, 0, 5)
	e.fireTriggers(ji, 0, 5)
	if e.firings != 1 || !e.nodes[0].wave.cut {
		t.Errorf("%d firings, cut %v; want one firing that cuts", e.firings, e.nodes[0].wave.cut)
	}
}

func TestParseTriggers(t *testing.T) {
	all := []trigger{triggerPriority, triggerDeadline, triggerSLO, triggerLoad}
	cases := []struct {
		spec string
		want []trigger
		on   bool
		name string // specName of the result
		err  string // substring of the error, "" for none
	}{
		{spec: "", name: "off"},
		{spec: "off", name: "off"},
		{spec: " off ", name: "off"},
		{spec: "none", on: true, name: "none"},
		{spec: "all", want: all, on: true, name: "priority+deadline+slo-at-risk+load"},
		{spec: "priority+deadline", want: all[:2], on: true, name: "priority+deadline"},
		{spec: "load + priority", want: []trigger{triggerLoad, triggerPriority}, on: true, name: "load+priority"},
		{spec: "priority+priority", want: all[:1], on: true, name: "priority"},
		{spec: "slo-at-risk", want: []trigger{triggerSLO}, on: true, name: "slo-at-risk"},
		{spec: "bogus", err: "unknown trigger"},
		{spec: "priority+bogus", err: "unknown trigger"},
		{spec: "+", err: "names no triggers"},
	}
	for _, tc := range cases {
		ts, on, err := parseTriggers(tc.spec)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want %q", tc.spec, err, tc.err)
			}
			continue
		}
		if err != nil || on != tc.on || !slices.Equal(ts, tc.want) {
			t.Errorf("%q: %v %v %v, want %v %v", tc.spec, ts, on, err, tc.want, tc.on)
		}
		if got := specName(on, ts); got != tc.name {
			t.Errorf("%q renders %q, want %q", tc.spec, got, tc.name)
		}
	}
}
