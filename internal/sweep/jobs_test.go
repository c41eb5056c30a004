package sweep

import (
	"context"
	"testing"

	"opsched/internal/hw"
	"opsched/internal/nn"
)

func jobGrid() JobGrid {
	return JobGrid{
		Mixes: []JobMix{
			{Models: []string{nn.DCGAN, nn.LSTM}},
			{Models: []string{nn.LSTM, nn.LSTM}},
		},
	}
}

// TestJobGridCells: enumeration is machine-major, mix-minor,
// arbiter-innermost, with mixes labelled by their models.
func TestJobGridCells(t *testing.T) {
	cells := jobGrid().Cells()
	if len(cells) != 2*3 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	if cells[0].Mix != "DCGAN+LSTM" || cells[0].Arbiter != "fair" || cells[0].Machine != "knl" {
		t.Errorf("first cell is %+v", cells[0])
	}
	if cells[3].Mix != "LSTM+LSTM" || cells[3].Arbiter != "fair" {
		t.Errorf("fourth cell is %+v", cells[3])
	}
	// Defaults: empty grid covers the paper-pair mixes under all arbiters.
	if def := (JobGrid{}).Cells(); len(def) != 2*3 {
		t.Errorf("default grid has %d cells, want 6", len(def))
	}
}

// TestJobGridDeterminism is the cross-job determinism contract: the same
// mix under any arbiter renders byte-identical reports whether the sweep
// runs serially or on eight workers, in the exact Cells order.
func TestJobGridDeterminism(t *testing.T) {
	g := jobGrid()
	serial, err := RunJobGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJobGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	labels := g.Cells()
	if len(serial) != len(labels) || len(parallel) != len(labels) {
		t.Fatalf("got %d serial / %d parallel cells, want %d", len(serial), len(parallel), len(labels))
	}
	for i := range labels {
		for _, c := range []JobCell{serial[i], parallel[i]} {
			if c.Machine != labels[i].Machine || c.Mix != labels[i].Mix || c.Arbiter != labels[i].Arbiter {
				t.Errorf("cell %d is %s/%s/%s, want %s/%s/%s",
					i, c.Machine, c.Mix, c.Arbiter, labels[i].Machine, labels[i].Mix, labels[i].Arbiter)
			}
		}
		if s, p := serial[i].Result.Render(), parallel[i].Result.Render(); s != p {
			t.Errorf("cell %d reports differ between serial and parallel sweeps:\n%s\nvs\n%s",
				i, s, p)
		}
	}
}

// TestJobGridSlowdowns: every co-run job in every cell reports slowdown
// >= 1 relative to its solo run.
func TestJobGridSlowdowns(t *testing.T) {
	cells, err := RunJobGrid(context.Background(), jobGrid(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for _, j := range c.Result.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Errorf("%s/%s: job %s slowdown %.4f < 1", c.Mix, c.Arbiter, j.Name, j.Slowdown)
			}
		}
	}
}

// TestJobGridUnknownArbiter: a bad policy name fails the sweep with a
// labelled error.
func TestJobGridUnknownArbiter(t *testing.T) {
	g := JobGrid{Mixes: []JobMix{{Models: []string{nn.LSTM}}}, Arbiters: []string{"nope"}}
	if _, err := RunJobGrid(context.Background(), g, 1); err == nil {
		t.Error("unknown arbiter accepted")
	}
}

// TestJobGridAccessorOverrides: explicit mixes, arbiters and machines are
// honoured, and a named mix keeps its label.
func TestJobGridAccessorOverrides(t *testing.T) {
	g := JobGrid{
		Arbiters: []string{"fair"},
		Machines: []NamedMachine{{Name: "m", Machine: hw.NewKNL()}},
	}
	if got := g.arbiters(); len(got) != 1 || got[0] != "fair" {
		t.Errorf("arbiters() = %v", got)
	}
	if got := g.machines(); len(got) != 1 || got[0].Name != "m" {
		t.Errorf("machines() = %v", got)
	}
	if got := (JobMix{Name: "label", Models: []string{nn.LSTM}}).name(); got != "label" {
		t.Errorf("named mix renders %q", got)
	}
	if got := (JobMix{Models: []string{nn.LSTM, nn.DCGAN}}).name(); got != nn.LSTM+"+"+nn.DCGAN {
		t.Errorf("unnamed mix renders %q", got)
	}
}
