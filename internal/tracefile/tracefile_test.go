package tracefile

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"opsched/internal/nn"
	"opsched/internal/place"
)

// TestGoldenMiniTrace pins the committed testdata/mini.csv to its exact
// decoded workload: epoch anchoring, out-of-order counting, zero-step
// defaulting, deadline parsing and stable unknown-model mapping.
func TestGoldenMiniTrace(t *testing.T) {
	f, err := os.Open("testdata/mini.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 5 {
		t.Fatalf("got %d jobs, want 5", len(w))
	}
	arrivals := []float64{0, 5e9, 3e9, 10e9, 12e9}
	steps := []int{3, 2, 1, 1, 4}
	for i, j := range w {
		if j.ArrivalNs != arrivals[i] {
			t.Errorf("job %d arrival %v, want %v", i, j.ArrivalNs, arrivals[i])
		}
		if j.Steps != steps[i] {
			t.Errorf("job %d steps %d, want %d", i, j.Steps, steps[i])
		}
		if _, err := nn.Resolve(j.Model); err != nil {
			t.Errorf("job %d model %q did not map onto the palette: %v", i, j.Model, err)
		}
	}
	if w[0].Model != nn.LSTM || w[2].Model != nn.ResNet50 || w[3].Model != nn.DCGAN {
		t.Errorf("known models not canonicalized: %q %q %q", w[0].Model, w[2].Model, w[3].Model)
	}
	if w[3].DeadlineNs != 60e9 {
		t.Errorf("j4 deadline %v, want 60e9", w[3].DeadlineNs)
	}
	if w[0].Name != "j1" || w[4].Name != "j5" {
		t.Errorf("names not read: %q ... %q", w[0].Name, w[4].Name)
	}
	s := r.Stats()
	if s.Rows != 5 || s.Jobs != 5 || s.Skipped != 0 || s.OutOfOrder != 1 || s.MappedModels != 2 {
		t.Errorf("stats %+v, want rows=5 jobs=5 skipped=0 outoforder=1 mapped=2", s)
	}
	// The decoded specs must survive the engine's own validation once
	// sorted into arrival order (the batch path a mini-trace takes).
	sorted := append(place.Workload(nil), w...)
	for i := 1; i < len(sorted); i++ {
		for k := i; k > 0 && sorted[k].ArrivalNs < sorted[k-1].ArrivalNs; k-- {
			sorted[k], sorted[k-1] = sorted[k-1], sorted[k]
		}
	}
	if err := sorted.Validate(); err != nil {
		t.Errorf("golden trace fails workload validation: %v", err)
	}
}

// TestHeaderVariants: the same three jobs under Philly-, Helios- and
// export-style header spellings decode identically.
func TestHeaderVariants(t *testing.T) {
	variants := map[string]string{
		"philly": "vc,jobid,submitted_time,workload\na,p1,100,lstm\na,p2,160,dcgan\na,p3,220,lstm\n",
		"helios": "job_name,user,submit_time,model\np1,u,100,lstm\np2,u,160,dcgan\np3,u,220,lstm\n",
		"export": "name,arrival,network\np1,100,lstm\np2,160,dcgan\np3,220,lstm\n",
		"iters":  "JOB_ID, NETWORK, TIME, ITERS\np1,lstm,100,1\np2,dcgan,160,1\np3,lstm,220,1\n",
	}
	for name, csvText := range variants {
		r, err := NewReader(strings.NewReader(csvText), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w) != 3 {
			t.Fatalf("%s: got %d jobs, want 3", name, len(w))
		}
		if w[0].Name != "p1" || w[0].Model != nn.LSTM || w[0].ArrivalNs != 0 {
			t.Errorf("%s: job 0 decoded as %+v", name, w[0])
		}
		if w[1].ArrivalNs != 60e9 || w[2].ArrivalNs != 120e9 {
			t.Errorf("%s: arrivals %v/%v, want 60e9/120e9", name, w[1].ArrivalNs, w[2].ArrivalNs)
		}
	}
}

// TestMissingColumns: a trace without a model or submission column is
// refused at the header, with the aliases named.
func TestMissingColumns(t *testing.T) {
	if _, err := NewReader(strings.NewReader(""), Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewReader(strings.NewReader("job,submit\nx,1\n"), Options{}); err == nil ||
		!strings.Contains(err.Error(), "model") {
		t.Errorf("missing model column: %v", err)
	}
	if _, err := NewReader(strings.NewReader("job,model\nx,lstm\n"), Options{}); err == nil ||
		!strings.Contains(err.Error(), "submission") {
		t.Errorf("missing submit column: %v", err)
	}
	if _, err := NewReader(strings.NewReader("model,submit\nlstm,1\n"), Options{Models: []string{"nope"}}); err == nil {
		t.Error("unknown palette model accepted")
	}
}

// TestMalformedRows: bad cells error with their row number; SkipMalformed
// drops them instead and counts the skips.
func TestMalformedRows(t *testing.T) {
	bad := "model,submit,priority\n" +
		"lstm,0,0\n" +
		"lstm,not-a-time,0\n" + // row 2: undecodable submission
		",5,0\n" + // row 3: empty model
		"lstm,6,high\n" + // row 4: non-integer priority
		"lstm,7,1\n"
	r, err := NewReader(strings.NewReader(bad), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("good row 1: %v", err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("malformed submission: %v", err)
	}

	r, err = NewReader(strings.NewReader(bad), Options{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("got %d jobs after skipping, want 2", len(w))
	}
	if w[1].ArrivalNs != 7e9 || w[1].Priority != 1 {
		t.Errorf("surviving row decoded as %+v", w[1])
	}
	s := r.Stats()
	if s.Rows != 5 || s.Jobs != 2 || s.Skipped != 3 {
		t.Errorf("stats %+v, want rows=5 jobs=2 skipped=3", s)
	}
}

// TestRowNumberAfterCSVLevelSkip: a CSV-level malformed line (a bare
// quote the csv layer itself rejects) advances the 1-based row counter on
// both the SkipMalformed path and the resumable error path, so a later
// cell-level rowErr reports the true row number instead of an off-by-one.
func TestRowNumberAfterCSVLevelSkip(t *testing.T) {
	bad := "model,submit,priority\n" +
		"lstm,0,0\n" + // row 1: good
		"lstm,1,b\"ad\n" + // row 2: CSV-level bare quote
		"lstm,2,high\n" + // row 3: non-integer priority
		"lstm,3,1\n" // row 4: good
	r, err := NewReader(strings.NewReader(bad), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("good row 1: %v", err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("csv-level error missing its row number: %v", err)
	}
	// Resuming past the csv-level error, the cell-level error must name
	// row 3 — before the fix the counter lagged and reported row 2 again.
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("cell-level error after a csv-level row reports the wrong row: %v", err)
	}

	r, err = NewReader(strings.NewReader(bad), Options{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("got %d jobs after skipping, want 2", len(w))
	}
	if s := r.Stats(); s.Rows != 4 || s.Jobs != 2 || s.Skipped != 2 {
		t.Errorf("stats %+v, want rows=4 jobs=2 skipped=2", s)
	}
}

// TestOutOfOrderAndZeroDuration: regressions are counted (not reordered —
// that is the pipeline admission stage's job), pre-epoch rows clamp to the
// trace start, and zero/absent step counts take the default.
func TestOutOfOrderAndZeroDuration(t *testing.T) {
	trace := "model,submit,steps\n" +
		"lstm,100,2\n" +
		"lstm,90,0\n" + // pre-epoch: clamps to 0, counts out-of-order
		"lstm,130,\n" + // empty steps: default
		"lstm,120,-3\n" // negative steps: default, out of order
	r, err := NewReader(strings.NewReader(trace), Options{DefaultSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if w[1].ArrivalNs != 0 {
		t.Errorf("pre-epoch row arrival %v, want clamp to 0", w[1].ArrivalNs)
	}
	if w[1].Steps != 4 || w[2].Steps != 4 || w[3].Steps != 4 {
		t.Errorf("zero/empty/negative steps not defaulted: %d %d %d", w[1].Steps, w[2].Steps, w[3].Steps)
	}
	if got := r.Stats().OutOfOrder; got != 2 {
		t.Errorf("out-of-order count %d, want 2", got)
	}
}

// TestTimeUnitAndCompress: numeric submissions scale by TimeUnit and
// arrival gaps shrink by Compress.
func TestTimeUnitAndCompress(t *testing.T) {
	trace := "model,submit\nlstm,1000\nlstm,3000\n"
	r, err := NewReader(strings.NewReader(trace), Options{TimeUnit: time.Millisecond, Compress: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 2000 ms gap, compressed 2x -> 1 virtual second.
	if w[0].ArrivalNs != 0 || w[1].ArrivalNs != 1e9 {
		t.Errorf("arrivals %v/%v, want 0/1e9", w[0].ArrivalNs, w[1].ArrivalNs)
	}
}

// TestUnknownModelMappingIsStable: the same unknown name maps to the same
// palette model in every reader — replays are reproducible — and distinct
// mappings are counted once per name. Both names hash to 2^31 or more, the
// range that indexed the palette negatively on 32-bit builds
// (GOARCH=386 go test ./internal/tracefile).
func TestUnknownModelMappingIsStable(t *testing.T) {
	trace := "model,submit\nbert-xxl,0\nbert-xxl,1\nswin-v2,2\n"
	first, err := NewReader(strings.NewReader(trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := first.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewReader(strings.NewReader(trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := second.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i].Model != w2[i].Model {
			t.Errorf("row %d mapped to %q then %q", i, w1[i].Model, w2[i].Model)
		}
	}
	if w1[0].Model != w1[1].Model {
		t.Errorf("same name mapped differently within one read: %q vs %q", w1[0].Model, w1[1].Model)
	}
	if got := first.Stats().MappedModels; got != 2 {
		t.Errorf("mapped-model count %d, want 2 distinct names", got)
	}
	palette := nn.Names()
	sort.Strings(palette)
	for _, tc := range []struct {
		name string
		got  string
	}{{"bert-xxl", w1[0].Model}, {"swin-v2", w1[2].Model}} {
		h := fnv.New32a()
		io.WriteString(h, tc.name)
		if h.Sum32() < 1<<31 {
			t.Fatalf("%s hashes to %d; pick a name at or above 2^31", tc.name, h.Sum32())
		}
		if want := palette[h.Sum32()%uint32(len(palette))]; tc.got != want {
			t.Errorf("%s mapped to %q, want %q", tc.name, tc.got, want)
		}
	}
}

// TestRowsAdmissionWouldReject: a row whose submission or deadline
// overflows to ±Inf once scaled to nanoseconds, or that admission would
// reject (a NaN or negative weight), is a row error, and SkipMalformed
// skips it without letting it anchor the epoch or the out-of-order count.
func TestRowsAdmissionWouldReject(t *testing.T) {
	for _, tc := range []struct {
		name     string
		trace    string
		badRow   int       // first rejected row in a strict read
		arrivals []float64 // surviving arrivals under SkipMalformed
	}{
		{"overflowing epoch", "model,submit\nlstm,1e300\ndcgan,5\nlstm,7\n", 1, []float64{0, 2e9}},
		{"overflowing later row", "model,submit\nlstm,0\nlstm,1e300\ndcgan,3\n", 2, []float64{0, 3e9}},
		{"negative overflow", "model,submit\nlstm,-1e300\nlstm,4\n", 1, []float64{0}},
		{"overflowing deadline", "model,submit,deadline\nlstm,0,1e300\nlstm,1,9\n", 1, []float64{0}},
		{"NaN weight", "model,submit,weight\nlstm,2,NaN\nlstm,3,1\n", 1, []float64{0}},
		{"negative weight", "model,submit,weight\nlstm,0,1\nlstm,1,-1\nlstm,2,0.5\n", 2, []float64{0, 2e9}},
		{"infinite weight", "model,submit,weight\nlstm,0,Inf\n", 1, nil},
		{"arrival past the time ceiling", "model,submit\nlstm,0\nlstm,1e17\ndcgan,3\n", 2, []float64{0, 3e9}},
		{"deadline past the time ceiling", "model,submit,deadline\nlstm,0,1e17\nlstm,1,9\n", 1, []float64{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(strings.NewReader(tc.trace), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for row := 1; ; row++ {
				_, err := r.Next()
				if row < tc.badRow && err != nil {
					t.Fatalf("row %d: %v", row, err)
				}
				if row == tc.badRow {
					if want := fmt.Sprintf("row %d:", row); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("strict read of row %d: got %v, want an error naming %q", row, err, want)
					}
					break
				}
			}

			r, err = NewReader(strings.NewReader(tc.trace), Options{SkipMalformed: true})
			if err != nil {
				t.Fatal(err)
			}
			w, err := r.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(w) != len(tc.arrivals) {
				t.Fatalf("kept %d jobs %+v, want arrivals %v", len(w), w, tc.arrivals)
			}
			for i, j := range w {
				if j.ArrivalNs != tc.arrivals[i] {
					t.Errorf("job %d arrival %v, want %v", i, j.ArrivalNs, tc.arrivals[i])
				}
				if err := j.Check(i); err != nil {
					t.Errorf("kept job %d fails admission: %v", i, err)
				}
			}
			if s := r.Stats(); s.Skipped != 1 || s.OutOfOrder != 0 {
				t.Errorf("stats %+v, want one skip and no out-of-order rows", s)
			}
		})
	}
}

// TestStreamingDoesNotSlurp: Next pulls exactly one row at a time from the
// underlying reader — the property that makes million-job traces cheap.
func TestStreamingDoesNotSlurp(t *testing.T) {
	var b strings.Builder
	b.WriteString("model,submit\n")
	for i := 0; i < 1000; i++ {
		b.WriteString("lstm,")
		b.WriteString(strings.Repeat("0", 1)) // constant rows
		b.WriteString("\n")
	}
	cr := &countingReader{r: strings.NewReader(b.String())}
	r, err := NewReader(cr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	// encoding/csv buffers, but far less than the whole input.
	if cr.read >= len(b.String()) {
		t.Errorf("first Next consumed the entire %d-byte trace", cr.read)
	}
	n := 1
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1000 {
		t.Errorf("streamed %d rows, want 1000", n)
	}
}

type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}
