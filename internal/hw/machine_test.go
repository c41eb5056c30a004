package hw

import (
	"math"
	"strings"
	"testing"
)

func TestNewKNLValid(t *testing.T) {
	m := NewKNL()
	if err := m.Validate(); err != nil {
		t.Fatalf("NewKNL().Validate() = %v, want nil", err)
	}
	if got := m.Tiles(); got != 34 {
		t.Errorf("Tiles() = %d, want 34", got)
	}
	if got := m.LogicalCPUs(); got != 272 {
		t.Errorf("LogicalCPUs() = %d, want 272", got)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"negative cores", func(m *Machine) { m.Cores = -4 }},
		{"tile mismatch", func(m *Machine) { m.CoresPerTile = 3 }},
		{"zero cores per tile", func(m *Machine) { m.CoresPerTile = 0 }},
		{"zero ht", func(m *Machine) { m.HTPerCore = 0 }},
		{"zero l2", func(m *Machine) { m.L2PerTileBytes = 0 }},
		{"zero bw", func(m *Machine) { m.BWMaxBytesNs = 0 }},
		{"zero bwhalf", func(m *Machine) { m.BWHalf = 0 }},
		{"negative alpha", func(m *Machine) { m.SyncAlpha = -1 }},
		{"ht2 too big", func(m *Machine) { m.HT2Eff = 1.5 }},
		{"ht4 above ht2", func(m *Machine) { m.HT4Eff = 0.9 }},
		{"negative oversub", func(m *Machine) { m.OversubMul = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewKNL()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestBandwidthSaturates(t *testing.T) {
	m := NewKNL()
	if bw := m.Bandwidth(0); bw != 0 {
		t.Errorf("Bandwidth(0) = %v, want 0", bw)
	}
	prev := 0.0
	for p := 1; p <= 272; p *= 2 {
		bw := m.Bandwidth(p)
		if bw <= prev {
			t.Errorf("Bandwidth(%d) = %v, not increasing (prev %v)", p, bw, prev)
		}
		if bw >= m.BWMaxBytesNs {
			t.Errorf("Bandwidth(%d) = %v, exceeds peak %v", p, bw, m.BWMaxBytesNs)
		}
		prev = bw
	}
	// One thread must see far less than peak: a single KNL core cannot
	// saturate MCDRAM.
	if one := m.Bandwidth(1); one > 0.3*m.BWMaxBytesNs {
		t.Errorf("Bandwidth(1) = %v, want < 30%% of peak %v", one, m.BWMaxBytesNs)
	}
}

func TestPlacementAccounting(t *testing.T) {
	m := NewKNL()
	cases := []struct {
		pl                    Placement
		p                     int
		cores, tiles, perTile int
	}{
		{Spread, 1, 1, 1, 1},
		{Spread, 34, 34, 34, 1},
		{Spread, 35, 35, 34, 2},
		{Spread, 68, 68, 34, 2},
		{Shared, 2, 2, 1, 2},
		{Shared, 34, 34, 17, 2},
		{Shared, 68, 68, 34, 2},
	}
	for _, tc := range cases {
		if got := tc.pl.CoresUsed(m, tc.p); got != tc.cores {
			t.Errorf("%v.CoresUsed(%d) = %d, want %d", tc.pl, tc.p, got, tc.cores)
		}
		if got := tc.pl.TilesUsed(m, tc.p); got != tc.tiles {
			t.Errorf("%v.TilesUsed(%d) = %d, want %d", tc.pl, tc.p, got, tc.tiles)
		}
		if got := tc.pl.ThreadsPerTile(m, tc.p); got != tc.perTile {
			t.Errorf("%v.ThreadsPerTile(%d) = %d, want %d", tc.pl, tc.p, got, tc.perTile)
		}
	}
	if got := Spread.CoresUsed(m, 0); got != 0 {
		t.Errorf("CoresUsed(0) = %d, want 0", got)
	}
	if got := Spread.CoresUsed(m, 100); got != 68 {
		t.Errorf("CoresUsed(100) = %d, want capped at 68", got)
	}
	if got := Spread.ThreadsPerTile(m, 0); got != 0 {
		t.Errorf("ThreadsPerTile(0) = %d, want 0", got)
	}
}

func TestPlacementString(t *testing.T) {
	if Spread.String() != "spread" || Shared.String() != "shared" {
		t.Errorf("placement strings wrong: %v %v", Spread, Shared)
	}
	if got := Placement(9).String(); got != "Placement(9)" {
		t.Errorf("unknown placement string = %q", got)
	}
	if Placement(9).Valid() {
		t.Error("Placement(9).Valid() = true, want false")
	}
}

func TestMachineString(t *testing.T) {
	if s, want := NewKNL().String(), "machine{68 cores, 34 tiles, 4 HT/core, 380 GB/s}"; s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

// TestValidateRejectsNaN: a NaN in any float field fails Validate instead
// of pricing every op at a finite, meaningless time.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		mutate func(*Machine)
	}{
		{"L2PerTileBytes", func(m *Machine) { m.L2PerTileBytes = nan }},
		{"BWMaxBytesNs", func(m *Machine) { m.BWMaxBytesNs = nan }},
		{"BWHalf", func(m *Machine) { m.BWHalf = nan }},
		{"SyncAlpha", func(m *Machine) { m.SyncAlpha = nan }},
		{"HT2Eff", func(m *Machine) { m.HT2Eff = nan }},
		{"HT4Eff", func(m *Machine) { m.HT4Eff = nan }},
		{"OversubMul", func(m *Machine) { m.OversubMul = nan }},
		{"GrainNs", func(m *Machine) { m.GrainNs = nan }},
	} {
		m := NewKNL()
		tc.mutate(m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("NaN %s: Validate() = %v, want an error naming the field", tc.name, err)
		}
	}
}
