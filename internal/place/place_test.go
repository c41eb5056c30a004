package place

import (
	"math"
	"strings"
	"testing"

	"opsched/internal/core"
	"opsched/internal/gpu"
	"opsched/internal/hw"
	"opsched/internal/nn"
)

// lstmStream is a small deterministic workload used across the tests.
func lstmStream(n int) Workload {
	return MustSynthetic(n, 1, []string{nn.LSTM}, 1e6)
}

// TestValidationErrors: every exported constructor path rejects bad input
// with a message naming the offending field — the table covers zero nodes,
// negative arrival times, unknown policies and the rest of the
// configuration surface.
func TestValidationErrors(t *testing.T) {
	good := lstmStream(2)
	badMachine := hw.NewKNL()
	badMachine.Cores = 0
	cases := []struct {
		name string
		w    Workload
		c    Cluster
		opts Options
		want string
	}{
		{"empty workload", Workload{}, Cluster{Nodes: 1}, Options{}, "empty workload"},
		{"negative arrival", Workload{{Model: "lstm", ArrivalNs: -5}}, Cluster{Nodes: 1}, Options{},
			"negative arrival time"},
		{"infinite arrival", Workload{{Model: "lstm", ArrivalNs: math.Inf(1)}}, Cluster{Nodes: 1}, Options{},
			"non-finite arrival"},
		{"NaN arrival", Workload{{Model: "lstm", ArrivalNs: math.NaN()}}, Cluster{Nodes: 1}, Options{},
			"non-finite arrival"},
		{"infinite deadline", Workload{{Model: "lstm", DeadlineNs: math.Inf(1)}}, Cluster{Nodes: 1}, Options{},
			"non-finite deadline"},
		{"unknown model", Workload{{Model: "vgg"}}, Cluster{Nodes: 1}, Options{}, "unknown model"},
		{"negative deadline", Workload{{Model: "lstm", DeadlineNs: -1}}, Cluster{Nodes: 1}, Options{},
			"negative deadline"},
		{"deadline before arrival", Workload{{Model: "lstm", ArrivalNs: 10, DeadlineNs: 5}}, Cluster{Nodes: 1},
			Options{}, "deadline"},
		{"zero nodes", good, Cluster{Nodes: 0}, Options{}, "at least one node"},
		{"negative nodes", good, Cluster{Nodes: -3}, Options{}, "at least one node"},
		{"negative gpus", good, Cluster{Nodes: 1, GPUs: -1}, Options{}, "at least one node"},
		{"bad machine", good, Cluster{Nodes: 1, Machine: badMachine}, Options{}, "Cores"},
		{"bad device", good, Cluster{GPUs: 1, GPU: &gpu.Device{}}, Options{}, "SMs"},
		{"empty node descriptor", good, Cluster{NodeList: []Node{{}}}, Options{}, "CPU machine or a GPU device"},
		{"double node descriptor", good,
			Cluster{NodeList: []Node{{CPU: hw.NewKNL(), GPU: gpu.NewP100()}}},
			Options{}, "both"},
		{"bad interconnect bandwidth", good,
			Cluster{Nodes: 1, Interconnect: &Interconnect{BWBytesNs: 0, LatencyNs: 1}},
			Options{}, "bandwidth"},
		{"negative interconnect latency", good,
			Cluster{Nodes: 1, Interconnect: &Interconnect{BWBytesNs: 1, LatencyNs: -1}},
			Options{}, "latency"},
		{"unknown policy", good, Cluster{Nodes: 1}, Options{Policy: "random"}, "unknown policy"},
		{"unknown arbiter", good, Cluster{Nodes: 1}, Options{Arbiter: "nope"}, "unknown arbiter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := PlaceJobs(tc.w, tc.c, tc.opts)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSyntheticWorkload: the generator is deterministic, honours the model
// cycle, keeps arrivals sorted and non-negative, and rejects bad input.
func TestSyntheticWorkload(t *testing.T) {
	a := MustSynthetic(8, 7, []string{"lstm", "dcgan"}, 2e6)
	b := MustSynthetic(8, 7, []string{"lstm", "dcgan"}, 2e6)
	if len(a) != 8 {
		t.Fatalf("got %d jobs, want 8", len(a))
	}
	prev := -1.0
	deadlines := 0
	for i, j := range a {
		if j != b[i] {
			t.Fatalf("job %d differs between identical seeds: %+v vs %+v", i, j, b[i])
		}
		if j.ArrivalNs < prev {
			t.Errorf("job %d arrival %v precedes job %d", i, j.ArrivalNs, i-1)
		}
		prev = j.ArrivalNs
		want := nn.LSTM
		if i%2 == 1 {
			want = nn.DCGAN
		}
		if j.Model != want {
			t.Errorf("job %d model %s, want %s", i, j.Model, want)
		}
		if j.DeadlineNs > 0 {
			deadlines++
		}
	}
	if deadlines != 2 {
		t.Errorf("got %d deadlines over 8 jobs, want 2", deadlines)
	}
	if c := MustSynthetic(3, 9, nil, 2e6); len(c) != 3 || c[0].Model != nn.ResNet50 {
		t.Errorf("default models start with %q", c[0].Model)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("synthetic workload fails validation: %v", err)
	}
	if _, err := Synthetic(0, 1, nil, 0); err == nil {
		t.Error("zero-job workload accepted")
	}
	if _, err := Synthetic(2, 1, []string{"vgg"}, 0); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestPlaceJobsEndToEnd: a small stream over two nodes finishes every job
// with consistent bookkeeping — queueing after arrival, finish after start,
// slowdown at least the co-run slowdown which is at least 1 — and the
// report is byte-identical across repeated runs.
func TestPlaceJobsEndToEnd(t *testing.T) {
	w := lstmStream(5)
	for _, policy := range Policies() {
		res, err := PlaceJobs(w, Cluster{Nodes: 2}, Options{Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(res.Jobs) != len(w) {
			t.Fatalf("%s: %d jobs placed, want %d", policy, len(res.Jobs), len(w))
		}
		totalJobs := 0
		for _, ns := range res.NodeStats {
			totalJobs += ns.Jobs
		}
		if totalJobs != len(w) {
			t.Errorf("%s: node stats count %d jobs, want %d", policy, totalJobs, len(w))
		}
		for i, p := range res.Jobs {
			if p.Node < 0 || p.Node >= 2 {
				t.Errorf("%s: job %d on node %d of 2", policy, i, p.Node)
			}
			if p.StartNs < p.ArrivalNs || p.FinishNs < p.StartNs {
				t.Errorf("%s: job %d times arrive=%v start=%v finish=%v", policy, i, p.ArrivalNs, p.StartNs, p.FinishNs)
			}
			if p.QueueNs < 0 {
				t.Errorf("%s: job %d negative queueing %v", policy, i, p.QueueNs)
			}
			if p.ReadyNs < p.ArrivalNs || p.StartNs < p.ReadyNs {
				t.Errorf("%s: job %d started %v before staged %v", policy, i, p.StartNs, p.ReadyNs)
			}
			if p.CoRunSlowdown < 1-1e-9 {
				t.Errorf("%s: job %d co-run slowdown %.4f < 1", policy, i, p.CoRunSlowdown)
			}
			if p.Slowdown < p.CoRunSlowdown-1e-9 {
				t.Errorf("%s: job %d slowdown %.4f < co-run slowdown %.4f", policy, i, p.Slowdown, p.CoRunSlowdown)
			}
			if p.FinishNs > res.MakespanNs {
				t.Errorf("%s: job %d finishes %v after makespan %v", policy, i, p.FinishNs, res.MakespanNs)
			}
		}
		if res.FairnessIndex <= 0 || res.FairnessIndex > 1+1e-12 {
			t.Errorf("%s: fairness %v outside (0,1]", policy, res.FairnessIndex)
		}
		again, err := PlaceJobs(w, Cluster{Nodes: 2}, Options{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Render() != again.Render() {
			t.Errorf("%s: identical runs render different reports", policy)
		}
	}
}

// TestPolicyShapes: spread balances the job count across nodes, binpack
// consolidates onto one node while capacity lasts — the structural
// differences the policies exist for.
func TestPolicyShapes(t *testing.T) {
	// Four jobs submitted together: spread alternates nodes as each
	// placement raises the chosen node's commitment, binpack keeps
	// re-packing node 0 (68 cores of capacity dwarf four jobs).
	w := Workload{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 0},
	}
	spreadRes, err := PlaceJobs(w, Cluster{Nodes: 2}, Options{Policy: "spread"})
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[int]int{}
	for _, p := range spreadRes.Jobs {
		perNode[p.Node]++
	}
	if perNode[0] != 2 || perNode[1] != 2 {
		t.Errorf("spread placed %v, want 2 jobs per node", perNode)
	}

	packRes, err := PlaceJobs(w, Cluster{Nodes: 2}, Options{Policy: "binpack"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range packRes.Jobs {
		if p.Node != 0 {
			t.Errorf("binpack sent job %d to node %d, want 0", i, p.Node)
		}
	}
	if packRes.NodeStats[1].Waves != 0 {
		t.Errorf("binpack used node 1 (%d waves)", packRes.NodeStats[1].Waves)
	}
}

// TestNodeDescriptor: Kind and Validate cover both hardware kinds and the
// degenerate descriptors.
func TestNodeDescriptor(t *testing.T) {
	cpu := Node{CPU: hw.NewKNL()}
	gpuNode := Node{GPU: gpu.NewP100()}
	if cpu.Kind() != KindCPU || gpuNode.Kind() != KindGPU {
		t.Errorf("kinds %q/%q, want cpu/gpu", cpu.Kind(), gpuNode.Kind())
	}
	if err := cpu.Validate(); err != nil {
		t.Errorf("CPU node invalid: %v", err)
	}
	if err := gpuNode.Validate(); err != nil {
		t.Errorf("GPU node invalid: %v", err)
	}
	badCPU := hw.NewKNL()
	badCPU.Cores = -1
	if err := (Node{CPU: badCPU}).Validate(); err == nil {
		t.Error("broken CPU machine accepted")
	}
	if err := (Node{GPU: &gpu.Device{}}).Validate(); err == nil {
		t.Error("broken GPU device accepted")
	}
}

// TestModelAwareHeteroRouting is the headline heterogeneous behaviour: on
// a mixed KNL + P100 fleet the model-aware policy routes the launch-bound
// LSTM to the manycore node and the convolution-heavy DCGAN to the GPU —
// each model lands on the hardware it scales best on — while the
// hardware-blind policies cannot tell the nodes apart.
func TestModelAwareHeteroRouting(t *testing.T) {
	w := Workload{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "dcgan", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 0},
		{Model: "dcgan", ArrivalNs: 0},
	}
	res, err := PlaceJobs(w, Cluster{Nodes: 1, GPUs: 1}, Options{Policy: "model-aware"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Jobs {
		want := KindCPU
		if p.Model == nn.DCGAN {
			want = KindGPU
		}
		if p.Kind != want {
			t.Errorf("job %d (%s) landed on %s hardware, want %s", i, p.Model, p.Kind, want)
		}
	}
	if !strings.Contains(res.Fleet, "machine{") || !strings.Contains(res.Fleet, "gpu{") {
		t.Errorf("fleet description %q does not name both hardware kinds", res.Fleet)
	}
	r := res.Render()
	for _, want := range []string{"fleet=", "[cpu]", "[gpu]", " hw ", " cpu ", " gpu "} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
	// GPU capacity is streams, not cores: a stream-capacity wave holds the
	// whole DCGAN pair at once on one device.
	gpuStats := res.NodeStats[1]
	if gpuStats.Kind != KindGPU || gpuStats.Jobs != 2 || gpuStats.Waves != 1 {
		t.Errorf("GPU node stats %+v, want both DCGANs in one wave", gpuStats)
	}
}

// TestRenderAlignment: with a two-digit node count every job row pads to
// one shared width and the node stat lines keep their index column
// aligned — the report stays a table, not a ragged list.
func TestRenderAlignment(t *testing.T) {
	r := &Result{
		Policy: "spread", Arbiter: "fair", Nodes: 12, Fleet: "12×machine{x}",
	}
	for i := 0; i < 12; i++ {
		kind := KindCPU
		if i >= 6 {
			kind = KindGPU
		}
		r.Jobs = append(r.Jobs, PlacedJob{
			Name: "j", Model: "m", Node: i, Kind: kind, Wave: i,
			ArrivalNs: 1e6, FinishNs: 2e6, SoloNs: 1e6, CoRunNs: 1e6,
			CoRunSlowdown: 1, Slowdown: 1,
		})
		r.NodeStats = append(r.NodeStats, NodeStats{Node: i, Kind: kind, Hardware: "x", Jobs: 1, Waves: 1})
	}
	r.finalize()
	lines := strings.Split(strings.TrimRight(r.Render(), "\n"), "\n")
	var jobLens []int
	for _, l := range lines[1 : 1+1+12] { // header + 12 job rows
		jobLens = append(jobLens, len(l))
	}
	for i, n := range jobLens {
		if n != jobLens[0] {
			t.Errorf("job row %d has width %d, want %d (misaligned at two-digit nodes):\n%s",
				i, n, jobLens[0], r.Render())
			break
		}
	}
	var bracketCols []int
	for _, l := range lines {
		if strings.HasPrefix(l, "  node ") {
			bracketCols = append(bracketCols, strings.Index(l, "["))
		}
	}
	if len(bracketCols) != 12 {
		t.Fatalf("got %d node stat lines, want 12", len(bracketCols))
	}
	for i, c := range bracketCols {
		if c != bracketCols[0] {
			t.Errorf("node line %d kind column at %d, want %d:\n%s", i, c, bracketCols[0], r.Render())
			break
		}
	}
}

// TestSingleNodeDegeneratesToCoTrain: on a one-node cluster every policy
// produces the same placement (node 0), and simultaneous arrivals join one
// wave.
func TestSingleNodeDegeneratesToCoTrain(t *testing.T) {
	// Same model twice so both jobs stage in the same transfer time and
	// join one wave (a heavier model would still be staging when the
	// lighter one's wave launches).
	w := Workload{
		{Model: "lstm", ArrivalNs: 0},
		{Model: "lstm", ArrivalNs: 0},
	}
	var renders []string
	for _, policy := range Policies() {
		res, err := PlaceJobs(w, Cluster{Nodes: 1}, Options{Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for i, p := range res.Jobs {
			if p.Node != 0 {
				t.Errorf("%s: job %d on node %d", policy, i, p.Node)
			}
			if p.Wave != 0 {
				t.Errorf("%s: job %d in wave %d, want one shared wave", policy, i, p.Wave)
			}
		}
		r := res.Render()
		renders = append(renders, strings.Replace(r, "policy="+policy, "policy=X", 1))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Errorf("policy %s renders a different single-node placement:\n%s\nvs\n%s",
				Policies()[i], renders[i], renders[0])
		}
	}
}

// TestExplicitOptionsAndInterconnect: a run with every option set — custom
// interconnect, explicit runtime config, explicit arbiter — honours them
// (a slower fabric stretches staging transfers).
func TestExplicitOptionsAndInterconnect(t *testing.T) {
	w := lstmStream(2)
	cfg := core.Strategies12()
	slow := &Interconnect{BWBytesNs: 0.5, LatencyNs: 3000}
	res, err := PlaceJobs(w, Cluster{Nodes: 1, Interconnect: slow},
		Options{Policy: "binpack", Arbiter: "srwf", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arbiter != "srwf" {
		t.Errorf("arbiter %q, want srwf", res.Arbiter)
	}
	fast, err := PlaceJobs(w, Cluster{Nodes: 1}, Options{Policy: "binpack", Arbiter: "srwf", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].TransferNs <= fast.Jobs[0].TransferNs {
		t.Errorf("slow fabric stages in %v, not above the default's %v",
			res.Jobs[0].TransferNs, fast.Jobs[0].TransferNs)
	}
}

// TestClusterValidateRejectsNaN: an interconnect with a NaN bandwidth or a
// NaN or infinite latency fails Validate, so PlaceJobs names the fabric
// instead of stalling with no job done.
func TestClusterValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		ic   Interconnect
		want string
	}{
		{"NaN bandwidth", Interconnect{BWBytesNs: nan, LatencyNs: 1500}, "bandwidth"},
		{"NaN latency", Interconnect{BWBytesNs: 10, LatencyNs: nan}, "latency"},
		{"infinite latency", Interconnect{BWBytesNs: 10, LatencyNs: math.Inf(1)}, "latency"},
	} {
		ic := tc.ic
		c := Cluster{Nodes: 2, Interconnect: &ic}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming the %s", tc.name, err, tc.want)
		}
		if _, err := PlaceJobs(lstmStream(6), c, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: PlaceJobs error %v, want one naming the %s", tc.name, err, tc.want)
		}
	}
}

// TestTimeCeiling: arrivals and deadlines past maxTimeNs fail Check and
// PlaceJobs. The ceiling keeps the float64 spacing below 1e-3 of the
// shortest solo step the engine prices, so that job reports the same
// slowdown, to that precision, arriving at the ceiling as at time 0.
func TestTimeCeiling(t *testing.T) {
	past := math.Nextafter(maxTimeNs, math.Inf(1))
	for _, j := range []JobSpec{
		{Model: "lstm", ArrivalNs: 1e25},
		{Model: "lstm", ArrivalNs: past},
		{Model: "lstm", DeadlineNs: 1e25},
		{Model: "lstm", DeadlineNs: past},
	} {
		if err := j.Check(1); err == nil || !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("Check(%+v) = %v, want a ceiling error", j, err)
		}
		if _, err := PlaceJobs(Workload{{Model: "lstm"}, j}, Cluster{Nodes: 1}, Options{}); err == nil {
			t.Errorf("PlaceJobs accepted %+v", j)
		}
	}
	if err := (JobSpec{Model: "lstm", ArrivalNs: maxTimeNs, DeadlineNs: maxTimeNs}).Check(0); err != nil {
		t.Errorf("a spec at the ceiling was rejected: %v", err)
	}

	var shortest JobSpec
	var shortestC Cluster
	var at0 PlacedJob
	for _, model := range nn.Names() {
		for _, c := range []Cluster{{Nodes: 1}, {GPUs: 1}} {
			for _, class := range Classes() {
				j := JobSpec{Model: model, Class: class}
				res, err := PlaceJobs(Workload{j}, c, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if at0.SoloNs == 0 || res.Jobs[0].SoloNs < at0.SoloNs {
					shortest, shortestC, at0 = j, c, res.Jobs[0]
				}
			}
		}
	}
	if spacing := past - maxTimeNs; !(spacing < 1e-3*at0.SoloNs) {
		t.Fatalf("float64 spacing %v ns at the ceiling is not below 1e-3 of the shortest solo step %v ns",
			spacing, at0.SoloNs)
	}
	shortest.ArrivalNs = maxTimeNs
	res, err := PlaceJobs(Workload{shortest}, shortestC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Jobs[0].Slowdown, at0.Slowdown; !(got >= 1) || math.Abs(got-want) > 1e-3*want {
		t.Errorf("%s arriving at the ceiling: slowdown %v, want %v within 1e-3", shortest.Model, got, want)
	}
}

// TestParamBytes: every workload ships a positive parameter payload, and
// staging it costs more than the bare message latency.
func TestParamBytes(t *testing.T) {
	ic := NewAries()
	for _, name := range nn.Names() {
		b := paramBytes(nn.MustBuild(name).Graph)
		if b <= 0 {
			t.Errorf("%s: paramBytes = %v, want positive", name, b)
		}
		if tr := ic.TransferNs(b); tr <= ic.LatencyNs {
			t.Errorf("%s: staging transfer %v not above latency", name, tr)
		}
	}
	if ic.TransferNs(0) != ic.LatencyNs {
		t.Error("zero payload should cost exactly the message latency")
	}
}

// TestMustSyntheticPanics: the panic constructor actually panics on bad
// input instead of returning a half-built workload.
func TestMustSyntheticPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSynthetic(0, ...) did not panic")
		}
	}()
	MustSynthetic(0, 1, nil, 0)
}
