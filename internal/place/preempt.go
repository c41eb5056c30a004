package place

import (
	"fmt"
	"slices"
	"strings"

	"opsched/internal/obs"
)

// Preemption: checkpoint/restart over the gang-wave engine.
//
// The paper's thesis is that reacting to contention at runtime beats
// committing to a static schedule; the multi-tenant scheduling literature
// (Yu et al., 2021; the iteration-boundary schedulers surveyed by Gilman &
// Walls, 2021) identifies checkpoint-at-step-boundary preemption as the
// mechanism that unlocks priority and deadline policies. Three pieces of
// the engine carry it:
//
//   - a trigger watches each arrival (a high-priority job, a deadline or
//     latency objective that cannot survive waiting for a wave to drain, a
//     node hoarding work while another sits idle) and cuts the wave on the
//     arrival's node at its next per-job step boundary — never mid-step, so
//     no completed work is ever discarded;
//   - a checkpoint keeps what the preempted job has already retired (its
//     steps done) and ships its staged parameter and optimizer state with
//     it when it moves;
//   - the restart re-prices the checkpointed job on every node with the
//     model-aware scan that places arrivals (scanModelAware), pricing its
//     remaining steps, except that every node but the one it left first
//     pays the interconnect transfer of the checkpoint state plus
//     re-staging.
//
// Everything is deterministic: triggers and restarts are pure functions of
// the engine state, and ties always break on the lower node index.

// trigger is one built-in preemption trigger.
type trigger uint8

const (
	// triggerPriority fires when the arrival strictly outranks every job
	// in the wave.
	triggerPriority trigger = iota
	// triggerDeadline fires when the arrival's deadline misses behind the
	// whole wave but makes it from the wave's next step boundary.
	triggerDeadline
	// triggerSLO is triggerDeadline for an inference request's latency
	// objective; training arrivals never fire it.
	triggerSLO
	// triggerLoad fires when the wave has rounds left past its next step
	// boundary while another node sits idle.
	triggerLoad
)

// triggerNames spells the triggers as specs, reports and metric labels name
// them, in the order "all" arms them. Adding a trigger widens what "all"
// arms — runs pinning byte-identical output across versions should name
// their triggers explicitly.
var triggerNames = [...]string{"priority", "deadline", "slo-at-risk", "load"}

func (t trigger) String() string { return triggerNames[t] }

// parseTriggers resolves a preemption spec (Options.Preempt) to a trigger
// set. "" and "off" disable preemption entirely (enabled == false); "none"
// enables the preemptive engine with an empty trigger set — the zero-firing
// configuration equivalence tests pin against the non-preemptive engine;
// "all" is every built-in trigger; anything else is a "+"-separated list of
// trigger names ("priority+deadline"), armed in spec order, each once.
func parseTriggers(spec string) (ts []trigger, enabled bool, err error) {
	switch strings.TrimSpace(spec) {
	case "", "off":
		return nil, false, nil
	case "none":
		return nil, true, nil
	case "all":
		return []trigger{triggerPriority, triggerDeadline, triggerSLO, triggerLoad}, true, nil
	}
	for _, name := range strings.Split(spec, "+") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.Index(triggerNames[:], name)
		if i < 0 {
			return nil, false, fmt.Errorf("place: unknown trigger %q (have %v)", name, triggerNames)
		}
		if t := trigger(i); !slices.Contains(ts, t) {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return nil, false, fmt.Errorf("place: preemption spec %q names no triggers", spec)
	}
	return ts, true, nil
}

// specName renders a parsed preemption spec the way reports echo it: "off"
// when preemption is disabled, "none" for the armed-but-empty trigger set,
// else the "+"-joined trigger names. parseTriggers reads it back to the
// same set.
func specName(enabled bool, ts []trigger) string {
	if !enabled {
		return "off"
	}
	if len(ts) == 0 {
		return "none"
	}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.String()
	}
	return strings.Join(names, "+")
}

// fireTriggers evaluates the armed triggers, in spec order, against job ji
// just placed on node n at instant at, and cuts n's wave when one fires. A
// wave is cut at most once; the first trigger to fire is credited with it.
func (e *Engine) fireTriggers(ji, n int, at float64) {
	if len(e.triggers) == 0 {
		return
	}
	w := e.nodes[n].wave
	if w == nil || w.cut {
		return
	}
	r := e.job(ji)
	for _, t := range e.triggers {
		if !e.fires(t, r, w, at) {
			continue
		}
		w.cut = true
		// The wave now ends at the current round's boundary: collapse the
		// drain horizon so later arrivals, triggers and restarts price the
		// node as freeing there.
		w.drainNs = w.roundEndNs
		e.firings++
		if e.eo != nil {
			e.eo.firings.With(t.String()).Inc()
		}
		if e.tr != nil {
			e.tr.Instant(obsPidNodes, n, t.String(), "trigger", at,
				obs.A("arrival", r.out.Name), obs.A("wave", w.ord))
		}
		return
	}
}

// fires reports whether trigger t cuts wave w, in flight on arrival r's
// node, at instant at. No trigger cuts a wave whose cut could not help the
// arrival: one already in its final round frees the node at the boundary
// anyway, and an arrival still staging past the boundary cannot join the
// relaunch.
func (e *Engine) fires(t trigger, r *jobRec, w *waveState, at float64) bool {
	p := &r.out
	switch t {
	case triggerPriority:
		if w.drainNs <= w.roundEndNs || r.readyNs > w.roundEndNs {
			return false
		}
		for _, ji := range w.active {
			if e.job(ji).priority >= r.priority {
				return false
			}
		}
		return true
	case triggerDeadline:
		return cutMeets(p.DeadlineNs, r, w)
	case triggerSLO:
		if !r.inference() || p.SLONs <= 0 {
			return false
		}
		return cutMeets(at+p.SLONs, r, w)
	case triggerLoad:
		// r's node runs w, so any idle node is another one.
		return w.drainNs > w.roundEndNs && e.idle.any()
	}
	return false
}

// cutMeets reports whether cutting wave w converts arrival r's predicted
// miss of deadlineNs into a predicted hit: r misses starting behind the
// whole wave (or when its staging completes, if later) but makes it
// starting at the wave's next step boundary. A deadline of 0 or less is
// none.
func cutMeets(deadlineNs float64, r *jobRec, w *waveState) bool {
	if deadlineNs <= 0 || r.readyNs > w.roundEndNs {
		return false
	}
	work := r.remainingNs()
	start := max(w.drainNs, r.readyNs)
	return start+work > deadlineNs && w.roundEndNs+work <= deadlineNs
}

// restartNode picks where checkpointed job ji, cut from node src at t,
// restarts, and when it is ready there: the model-aware scan over its
// remaining steps, every node but src delayed by the checkpoint-state
// transfer plus re-staging.
func (e *Engine) restartNode(ji, src int, t float64) (n int, readyNs float64) {
	mi := e.info(e.job(ji).workKey)
	delay := mi.xferNs + mi.xferNs // checkpoint state, then re-staging
	acc := pickAcc{best: -1, fall: -1}
	e.scanModelAware(t, e.jobWorkPerRuntime(ji), src, delay, &acc)
	n = acc.pick()
	if n == src {
		return n, t
	}
	return n, t + delay
}

// checkpointWave captures every unfinished job of a wave cut on node from
// at the step boundary t and restarts each where its remaining steps are
// predicted to finish soonest (restartNode).
func (e *Engine) checkpointWave(from int, remain []int, t float64) {
	for _, ji := range remain {
		r := e.job(ji)
		tgt, readyNs := e.restartNode(ji, from, t)
		p := &r.out
		p.Preemptions++
		if tgt != from {
			p.Migrations++
			if r.path == nil {
				r.path = []int{from}
			}
			r.path = append(r.path, tgt)
		}
		if e.eo != nil {
			e.eo.preemptions.Inc()
			if tgt != from {
				e.eo.migrations.Inc()
			}
		}
		if e.tr != nil {
			// One flow arrow per preemption: started here on the node the
			// job left, bound at its relaunch (launchWave ends it).
			id := e.tr.NextID()
			r.flowID = id
			e.tr.AsyncInstant(obsPidJobs, int64(ji), "preempt", "job", t,
				obs.A("from", from), obs.A("to", tgt),
				obs.A("steps_done", r.done))
			e.tr.FlowStart(obsPidNodes, from, id, "migrate", "preempt", t)
		}
		p.Node = tgt
		p.Kind = e.nodes[tgt].rt.Kind()
		r.checkpointNs = t
		e.stage(ji, tgt, readyNs)
	}
}
