package hw

import (
	"math"
	"math/rand"
	"testing"
)

// referenceOpTime is the single-pass formula OpTime used before it was
// split into Price and Time. The split must reproduce it bit for bit: every
// report of the repository is priced through it.
func referenceOpTime(m *Machine, c OpCost, p int, pl Placement, ctx RunContext) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	ctx = ctx.normalize()
	p = m.usefulThreads(c, p)

	scale := m.smtEff(p, ctx.SMTDepth) * ctx.ComputeScale

	serial := c.SerialFrac * c.WorkNs / scale

	eff := 1 / (1 + m.SyncAlpha*math.Log(float64(p)))
	parallel := (1 - c.SerialFrac) * c.WorkNs / (float64(p) * eff * scale)

	var memory float64
	if c.Bytes > 0 {
		streams := p
		if streams > m.LogicalCPUs() {
			streams = m.LogicalCPUs()
		}
		bw := m.Bandwidth(streams) * ctx.BWShare
		if bw > 0 {
			memory = m.memTraffic(c, p, pl) / bw
		}
	}

	return serial + parallel + memory + c.SpawnNs*float64(p)/scale
}

// smallMachine is a valid 8-core machine without the useful-threads cap.
func smallMachine() *Machine {
	return &Machine{
		Cores: 8, CoresPerTile: 2, HTPerCore: 2, L2PerTileBytes: 256 << 10,
		BWMaxBytesNs: 40, BWHalf: 2, SyncAlpha: 0.1, HT2Eff: 0.6, HT4Eff: 0.3,
		OversubMul: 1, GrainNs: 0,
	}
}

// checkPrice compares Price(...).Time(...) and Traffic() with the reference
// formula and MemTraffic for one input, bit for bit.
func checkPrice(t *testing.T, m *Machine, c OpCost, p int, pl Placement, ctx RunContext) {
	t.Helper()
	pr := m.Price(c, p, pl)
	got, want := pr.Time(m, ctx), referenceOpTime(m, c, p, pl, ctx)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Price(%+v, %d, %v).Time(%+v) = %v, reference %v", c, p, pl, ctx, got, want)
	}
	if got := m.OpTime(c, p, pl, ctx); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("OpTime(%+v, %d, %v, %+v) = %v, reference %v", c, p, pl, ctx, got, want)
	}
	if got, want := pr.Traffic(), m.MemTraffic(c, p, pl); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Price(%+v, %d, %v).Traffic() = %v, MemTraffic %v", c, p, pl, got, want)
	}
}

// randomCost draws a valid OpCost spanning tiny to huge operations, with
// the zero edges (no bytes, no working set, no spawn) drawn often.
func randomCost(r *rand.Rand) OpCost {
	pick := func(zero, scale float64) float64 {
		if r.Float64() < zero {
			return 0
		}
		return math.Exp(r.Float64()*math.Log(scale)) - 1
	}
	return OpCost{
		WorkNs:          1 + pick(0, 1e9),
		SerialFrac:      r.Float64() * 0.999,
		SpawnNs:         pick(0.1, 1e5),
		Bytes:           pick(0.2, 1e9),
		WorkingSetBytes: pick(0.2, 1e9),
		ShareFrac:       r.Float64(),
		MissBase:        r.Float64(),
	}
}

// randomContext draws contexts with zero, in-range and out-of-range
// fields, so normalize's every branch runs.
func randomContext(r *rand.Rand) RunContext {
	shares := []float64{0, -0.5, 1, 1.5, math.SmallestNonzeroFloat64, r.Float64()}
	scales := []float64{0, -1, 1, 2, r.Float64()}
	return RunContext{
		BWShare:      shares[r.Intn(len(shares))],
		SMTDepth:     r.Intn(12) - 2,
		ComputeScale: scales[r.Intn(len(scales))],
	}
}

func TestPriceMatchesReferenceOpTime(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	costs := []OpCost{convCost(), streamCost(), {WorkNs: 1}, {WorkNs: 1e-3, SerialFrac: 0.5, Bytes: 1}}
	for i := 0; i < 100; i++ {
		costs = append(costs, randomCost(r))
	}
	for _, m := range []*Machine{NewKNL(), smallMachine()} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, c := range costs {
			if err := c.Validate(); err != nil {
				t.Fatalf("randomCost drew an invalid cost %+v: %v", c, err)
			}
			for p := -1; p <= 600; p++ {
				for _, pl := range Placements() {
					checkPrice(t, m, c, p, pl, Solo())
					checkPrice(t, m, c, p, pl, randomContext(r))
				}
			}
		}
	}
}

// FuzzPrice holds Price(...).Time(...) to the reference formula on
// arbitrary valid costs, thread counts, placements, contexts and both
// test machines.
func FuzzPrice(f *testing.F) {
	c := convCost()
	f.Add(c.WorkNs, c.SerialFrac, c.SpawnNs, c.Bytes, c.WorkingSetBytes, c.ShareFrac, c.MissBase, 34, false, 1.0, 1, 1.0, false)
	s := streamCost()
	f.Add(s.WorkNs, s.SerialFrac, s.SpawnNs, s.Bytes, s.WorkingSetBytes, s.ShareFrac, s.MissBase, 600, true, 0.3, 3, 0.5, true)
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, false, 0.0, 0, 0.0, false)
	f.Add(5e4, 0.9, 1e3, 1e6, 0.0, 1.0, 1.0, -1, true, 2.0, -4, -1.0, true)
	f.Add(1e9, 0.01, 5e4, 1e9, 1e9, 0.5, 0.2, 273, false, 1e-300, 9, 1e-9, false)
	f.Fuzz(func(t *testing.T, work, serial, spawn, bytes, ws, share, miss float64,
		p int, shared bool, bwShare float64, depth int, computeScale float64, small bool) {
		c := OpCost{WorkNs: work, SerialFrac: serial, SpawnNs: spawn, Bytes: bytes,
			WorkingSetBytes: ws, ShareFrac: share, MissBase: miss}
		if c.Validate() != nil || math.IsInf(work, 0) || math.IsInf(spawn, 0) ||
			math.IsInf(bytes, 0) || math.IsInf(ws, 0) || math.IsNaN(bwShare) || math.IsNaN(computeScale) {
			t.Skip()
		}
		m := NewKNL()
		if small {
			m = smallMachine()
		}
		pl := Spread
		if shared {
			pl = Shared
		}
		checkPrice(t, m, c, p, pl, RunContext{BWShare: bwShare, SMTDepth: depth, ComputeScale: computeScale})
	})
}
