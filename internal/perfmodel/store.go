package perfmodel

import (
	"sort"
	"sync"

	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/op"
)

// Store holds hill-climbing profiles keyed by operation-class signature.
// The runtime fills it during the profiling steps and consults it for
// every scheduling decision afterwards.
type Store struct {
	profiles map[string]*Profile
	derived  derivedTable
}

// derivedTable maps comparable keys to values built at most once per key:
// concurrent callers for one key wait for the same result.
type derivedTable struct {
	mu      sync.Mutex
	entries map[any]*derivedEntry
}

type derivedEntry struct {
	once sync.Once
	val  any
}

func (t *derivedTable) derive(key any, build func() any) any {
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		if t.entries == nil {
			t.entries = make(map[any]*derivedEntry)
		}
		e = &derivedEntry{}
		t.entries[key] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// reset drops every entry; callers already waiting on one still get its
// value.
func (t *derivedTable) reset() {
	t.mu.Lock()
	t.entries = nil
	t.mu.Unlock()
}

// Derive returns the value build computes for key, running build at most
// once per store; concurrent callers for one key wait for the same result.
// It lets consumers hang read-only tables derived from the frozen profiles
// on the store, so they are shared wherever the store is and dropped with
// it (ResetCache). key must be comparable and build must not modify the
// store.
func (s *Store) Derive(key any, build func() any) any { return s.derived.derive(key, build) }

// NewStore returns an empty profile store.
func NewStore() *Store { return &Store{profiles: make(map[string]*Profile)} }

// Put registers a profile, replacing any previous one for the signature.
func (s *Store) Put(p *Profile) { s.profiles[p.Signature] = p }

// Get returns the profile for a signature.
func (s *Store) Get(sig string) (*Profile, bool) {
	p, ok := s.profiles[sig]
	return p, ok
}

// Len returns the number of stored profiles.
func (s *Store) Len() int { return len(s.profiles) }

// Signatures returns the stored signatures in sorted order.
func (s *Store) Signatures() []string {
	out := make([]string, 0, len(s.profiles))
	for sig := range s.profiles {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// StepsUsed returns the profiling-step budget the store consumed: the
// paper runs all operations of a training step serially at the same thread
// count per profiling step, so the global cost is the maximum over
// operation classes, not the sum.
func (s *Store) StepsUsed() int {
	max := 0
	for _, p := range s.profiles {
		if p.StepsUsed > max {
			max = p.StepsUsed
		}
	}
	return max
}

// ProfileGraph hill-climbs every distinct operation class in the graph and
// returns the filled store. Duplicate instances share one profile, exactly
// as the paper keys profiles by operation and input size.
func ProfileGraph(m *hw.Machine, g *graph.Graph, interval int) *Store {
	h := &HillClimb{Machine: m, Interval: interval}
	store := NewStore()
	for _, n := range g.Nodes() {
		sig := n.Op.Signature()
		if _, ok := store.Get(sig); ok {
			continue
		}
		store.Put(h.Search(sig, MachineTime(m, n.Op.Cost())))
	}
	return store
}

// LargestInstanceProfiles maps every operation *kind* in the graph to the
// profile of its most work-intensive instance — Strategy 2's rule that an
// operation always uses the thread count tuned for its largest input size.
func LargestInstanceProfiles(g *graph.Graph, store *Store) map[op.Kind]*Profile {
	heaviest := make(map[op.Kind]*graph.Node)
	for _, n := range g.Nodes() {
		cur, ok := heaviest[n.Op.Kind]
		if !ok || n.Op.Cost().WorkNs > cur.Op.Cost().WorkNs {
			heaviest[n.Op.Kind] = n
		}
	}
	out := make(map[op.Kind]*Profile, len(heaviest))
	for kind, n := range heaviest {
		if p, ok := store.Get(n.Op.Signature()); ok {
			out[kind] = p
		}
	}
	return out
}
