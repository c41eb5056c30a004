package exec_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opsched/internal/core"
	"opsched/internal/exec"
	"opsched/internal/graph"
	"opsched/internal/hw"
	"opsched/internal/multijob"
	"opsched/internal/nn"
	"opsched/internal/op"
)

// unpriced forwards only Name and Schedule, so it hides a scheduler's
// price table: the loop prices every launch of its job fresh.
type unpriced struct{ exec.Scheduler }

// pricedFIFO is a FIFO that hands the loop a price table.
type pricedFIFO struct {
	*exec.FIFO
	prices *exec.PriceTable
}

func (p pricedFIFO) Prices() *exec.PriceTable { return p.prices }

// fifoPrices prices every node of g on m at f's one configuration.
func fifoPrices(m *hw.Machine, g *graph.Graph, f *exec.FIFO) *exec.PriceTable {
	l := []exec.Launch{{Threads: f.IntraOp, Placement: f.Place}}
	return exec.NewPriceTable(m, g, func(graph.NodeID) []exec.Launch { return l })
}

// strategyConfigs lists all 16 combinations of the runtime's strategies.
func strategyConfigs() []core.Config {
	cfgs := make([]core.Config, 0, 16)
	for mask := 0; mask < 16; mask++ {
		cfgs = append(cfgs, core.Config{Strategy1: mask&1 != 0, Strategy2: mask&2 != 0,
			Strategy3: mask&4 != 0, Strategy4: mask&8 != 0})
	}
	return cfgs
}

// TestPriceTableMatchesFreshPricing is the price table's reference twin:
// every model's step under all 16 strategy configurations, through
// exec.Run and multijob.SoloNs, and the four pairs of co-running models
// under every arbiter, give results deeply equal to the same runs with the
// table hidden. The solo steps run on the graph the table was priced from
// and on a second build of it, whose costs the loop checks; every launch
// of theirs reads the table, so the twin compares stored prices with fresh
// ones.
func TestPriceTableMatchesFreshPricing(t *testing.T) {
	m := hw.NewKNL()
	for _, name := range nn.Names() {
		g := nn.MustBuild(name).Graph
		rebuilt := nn.MustBuild(name).Graph
		for _, cfg := range strategyConfigs() {
			job, err := multijob.RuntimeJob(fmt.Sprintf("%s%+v", name, cfg), g, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*graph.Graph{g, rebuilt} {
				prices := exec.PricesFor(job.Sched, m, g)
				if prices == nil {
					t.Fatalf("%s: the loop would not read the runtime's price table", job.Name)
				}
				got, err := exec.Run(g, job.Sched, m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exec.Run(g, unpriced{job.Sched}, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: exec.Run with the price table differs from fresh pricing: %v ns vs %v ns",
						job.Name, got.StepTimeNs, want.StepTimeNs)
				}
				for _, r := range got.Records {
					if !prices.Priced(g, r.Node, r.Threads, r.Placement) {
						t.Fatalf("%s: node %d launched at %d threads %v, which the table does not price",
							job.Name, r.Node, r.Threads, r.Placement)
					}
				}
			}
			solo, err := multijob.SoloNs(job, m)
			if err != nil {
				t.Fatal(err)
			}
			fresh := job
			fresh.Sched = unpriced{job.Sched}
			if want, err := multijob.SoloNs(fresh, m); err != nil || solo != want {
				t.Errorf("%s: SoloNs with the price table %v ns, fresh %v ns (%v)", job.Name, solo, want, err)
			}
		}
	}

	pairs := [][2]string{{nn.ResNet50, nn.LSTM}, {nn.InceptionV3, nn.DCGAN}, {nn.ResNet50, nn.DCGAN}, {nn.LSTM, nn.DCGAN}}
	for _, pair := range pairs {
		jobs := make([]multijob.Job, len(pair))
		fresh := make([]multijob.Job, len(pair))
		solos := make([]float64, len(pair))
		for i, name := range pair {
			g := nn.MustBuild(name).Graph
			job, err := multijob.RuntimeJob(name, g, m, core.AllStrategies())
			if err != nil {
				t.Fatal(err)
			}
			if solos[i], err = multijob.SoloNs(job, m); err != nil {
				t.Fatal(err)
			}
			jobs[i], fresh[i] = job, job
			fresh[i].Sched = unpriced{job.Sched}
		}
		for _, arbName := range multijob.Arbiters() {
			arb, err := multijob.NewArbiter(arbName)
			if err != nil {
				t.Fatal(err)
			}
			got, err := multijob.CoRun(jobs, solos, arb, m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := multijob.CoRun(fresh, solos, arb, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v under %s: co-run with price tables differs from fresh pricing:\n%s\nwant:\n%s",
					pair, arbName, got.Render(), want.Render())
			}
		}
	}
}

// TestPriceTableGuards: the loop reads a scheduler's price table only for
// the machine value and the graph it was priced for, and a stored price
// only for the cost it was priced at; everywhere else a run equals fresh
// pricing on the loop's own machine. An invalid cost still fails the run
// with the error fresh pricing gives.
func TestPriceTableGuards(t *testing.T) {
	knl := hw.NewKNL()
	lstm := nn.MustBuild(nn.LSTM).Graph
	sameAsFresh := func(what string, g *graph.Graph, s exec.Scheduler, m *hw.Machine) *exec.Result {
		t.Helper()
		got, err := exec.Run(g, s, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Run(g, unpriced{s}, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v ns, fresh pricing %v ns", what, got.StepTimeNs, want.StepTimeNs)
		}
		return got
	}

	// Another machine value: a runtime profiled on KNL, run on a KNL
	// with less bandwidth, whose prices differ.
	rt := core.New(knl, core.AllStrategies())
	if err := rt.Profile(lstm); err != nil {
		t.Fatal(err)
	}
	slow := *knl
	slow.BWMaxBytesNs = 300
	if exec.PricesFor(rt, &slow, lstm) != nil {
		t.Error("a table priced on KNL is used on a KNL with other bandwidth")
	}
	onSlow := sameAsFresh("runtime priced on KNL, run on the slower machine", lstm, rt, &slow)
	if onKNL := sameAsFresh("runtime on KNL", lstm, rt, knl); onKNL.StepTimeNs == onSlow.StepTimeNs {
		t.Fatalf("the machines price LSTM's step alike (%v ns), so the guard goes untested", onKNL.StepTimeNs)
	}

	// A graph with another signature.
	fifo := exec.Recommendation(knl)
	dcgan := nn.MustBuild(nn.DCGAN).Graph
	foreign := pricedFIFO{fifo, fifoPrices(knl, lstm, fifo)}
	if exec.PricesFor(foreign, knl, dcgan) != nil {
		t.Error("a table priced for LSTM is used for DCGAN")
	}
	sameAsFresh("FIFO with LSTM's table on DCGAN", dcgan, foreign, knl)

	// Pooling windows are not in a graph's signature but are in its
	// costs: a table priced for 3x3 pools is used on 2x2 pools, and its
	// stored prices are not.
	pools := func(window int) *graph.Graph {
		g := graph.New("pools")
		prev := g.Add(op.Elementwise(op.Relu, 32, 56, 56, 64), "relu")
		for i := 0; i < 4; i++ {
			prev = g.Add(&op.Op{Kind: op.MaxPooling, Input: op.Dims{32, 56, 56, 64}, Window: window}, "pool", prev)
		}
		return g
	}
	wide, narrow := pools(3), pools(0)
	if wide.Signature() != narrow.Signature() || wide.Node(1).Op.Cost() == narrow.Node(1).Op.Cost() {
		t.Fatal("the pool graphs must share a signature and differ in cost")
	}
	stale := pricedFIFO{fifo, fifoPrices(knl, wide, fifo)}
	if exec.PricesFor(stale, knl, narrow) == nil {
		t.Fatal("the table priced for equal signatures is not used")
	}
	sameAsFresh("FIFO with 3x3 pool prices on 2x2 pools", narrow, stale, knl)

	// An invalid cost: the convolution's filter volume overflows, so its
	// work is zero.
	bad := graph.New("bad")
	bad.Add(op.Conv(op.Conv2D, 1, 1, 1, 1<<22, 1<<21, 1, 1), "conv")
	if err := bad.Node(0).Op.Cost().Validate(); err == nil {
		t.Fatal("the overflowing convolution has a valid cost")
	}
	run := func(s exec.Scheduler) error {
		_, err := exec.CoRun([]exec.Job{{Name: "bad", Graph: bad, Sched: s}}, knl,
			func(_ []exec.Result, dst []exec.Claim) []exec.Claim { return append(dst, exec.Claim{Cap: knl.Cores}) })
		return err
	}
	want := run(fifo)
	got := run(pricedFIFO{fifo, fifoPrices(knl, bad, fifo)})
	if want == nil || got == nil || got.Error() != want.Error() || !strings.Contains(got.Error(), "OpCost.WorkNs must be positive") {
		t.Errorf("CoRun of an invalid cost with a price table = %v, fresh pricing %v; want the same WorkNs error", got, want)
	}
}
