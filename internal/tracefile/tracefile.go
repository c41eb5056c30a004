// Package tracefile reads Philly/Helios-style CSV job traces as a stream
// of place.JobSpec — one row at a time, never slurping the file, so a
// million-job trace costs one row of memory. It is the trace-replay front
// end of the streaming pipeline: a Reader plugs directly into
// pipeline.Replay as a Source, and ReadAll materializes small traces
// behind the ordinary Workload type for the batch API.
//
// The reader is deliberately forgiving about schema: production traces
// disagree on header spellings (Philly's "vc,jobid,submitted_time,...",
// Helios's "job_name,user,submit_time,...", ad-hoc exports with
// "model,arrival"), so each field is located by a case-insensitive alias
// set. Only a model/workload column and a submission-time column are
// required; name, priority, weight, steps and deadline are optional.
// Submission times may be numeric (seconds by default, TimeUnit to
// override) or timestamps ("2006-01-02 15:04:05" / RFC 3339); either way
// the first row anchors the trace epoch, so arrival zero is the first
// submission. Model names the simulator does not know are mapped onto the
// built-in palette by a stable FNV-1a hash — the same trace always
// replays as the same workload.
package tracefile

import (
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"opsched/internal/nn"
	"opsched/internal/place"
)

// Options configure a trace read.
type Options struct {
	// TimeUnit is the unit of a numeric submission column; 0 means
	// time.Second (the Philly/Helios convention). Timestamp columns ignore
	// it.
	TimeUnit time.Duration
	// Compress divides every epoch-relative arrival gap: 24 replays a day
	// of trace in one virtual hour. <= 0 or 1 keeps native arrival times.
	Compress float64
	// Models is the palette unknown model names hash onto; empty means the
	// built-in model set. Entries must resolve through nn.Resolve.
	Models []string
	// DefaultSteps is the step count for rows without a steps column or
	// with a non-positive value (a "zero-duration" trace job still runs
	// one step); <= 0 means 1.
	DefaultSteps int
	// SkipMalformed drops undecodable rows (counted in Stats) instead of
	// failing the read.
	SkipMalformed bool
}

func (o Options) unitNs() float64 {
	if o.TimeUnit <= 0 {
		return float64(time.Second)
	}
	return float64(o.TimeUnit)
}

func (o Options) compress() float64 {
	if o.Compress <= 0 {
		return 1
	}
	return o.Compress
}

func (o Options) defaultSteps() int {
	if o.DefaultSteps <= 0 {
		return 1
	}
	return o.DefaultSteps
}

// Stats summarize a read so far: how many rows became jobs, how many were
// skipped as malformed, how many arrived out of order (the pipeline
// clamps those on submission), and how many model names had to be
// hashed onto the palette.
type Stats struct {
	Rows         int
	Jobs         int
	Skipped      int
	OutOfOrder   int
	MappedModels int
}

// column aliases, matched case-insensitively after trimming.
var (
	nameCols     = []string{"job", "job_id", "jobid", "job_name", "jobname", "name"}
	modelCols    = []string{"model", "model_name", "workload", "dnn", "network"}
	submitCols   = []string{"submit", "submit_time", "submitted_time", "arrival", "arrival_time", "arrival_ns", "timestamp", "time"}
	priorityCols = []string{"priority", "prio"}
	weightCols   = []string{"weight"}
	stepsCols    = []string{"steps", "iterations", "iters", "num_steps"}
	deadlineCols = []string{"deadline", "deadline_time"}
)

// timestampLayouts are the non-numeric submission formats accepted.
var timestampLayouts = []string{
	"2006-01-02 15:04:05",
	time.RFC3339,
	"2006-01-02T15:04:05",
}

// Reader streams one trace. Next returns rows as specs in file order
// (io.EOF at end); it never reads ahead more than one row.
type Reader struct {
	csv  *csv.Reader
	opts Options

	// column indices, -1 when absent
	name, model, submit, priority, weight, steps, deadline int

	palette []string

	epochSet  bool
	epochNs   float64 // first row's submission, in ns before compression
	lastNs    float64 // previous arrival, for out-of-order counting
	row       int     // 1-based data row counter (header not counted)
	stats     Stats
	modelMemo map[string]string
}

// NewReader decodes the header and prepares a streaming read. It fails on
// an empty input, an unreadable header, a missing model or submission
// column, or a palette entry the simulator does not know.
func NewReader(r io.Reader, opts Options) (*Reader, error) {
	c := csv.NewReader(r)
	c.FieldsPerRecord = -1 // row width is checked per needed column
	c.TrimLeadingSpace = true
	c.Comment = '#'
	header, err := c.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("tracefile: empty trace")
	}
	if err != nil {
		return nil, fmt.Errorf("tracefile: header: %w", err)
	}
	cols := make(map[string]int, len(header))
	for i, h := range header {
		cols[strings.ToLower(strings.TrimSpace(h))] = i
	}
	find := func(aliases []string) int {
		for _, a := range aliases {
			if i, ok := cols[a]; ok {
				return i
			}
		}
		return -1
	}
	tr := &Reader{
		csv: c, opts: opts,
		name: find(nameCols), model: find(modelCols), submit: find(submitCols),
		priority: find(priorityCols), weight: find(weightCols),
		steps: find(stepsCols), deadline: find(deadlineCols),
		modelMemo: make(map[string]string),
	}
	if tr.model < 0 {
		return nil, fmt.Errorf("tracefile: no model column (tried %s) in header %v",
			strings.Join(modelCols, "/"), header)
	}
	if tr.submit < 0 {
		return nil, fmt.Errorf("tracefile: no submission-time column (tried %s) in header %v",
			strings.Join(submitCols, "/"), header)
	}
	palette := opts.Models
	if len(palette) == 0 {
		palette = nn.Names()
	}
	tr.palette = make([]string, len(palette))
	for i, m := range palette {
		canon, err := nn.Resolve(m)
		if err != nil {
			return nil, fmt.Errorf("tracefile: palette: %w", err)
		}
		tr.palette[i] = canon
	}
	sort.Strings(tr.palette) // palette order independent of input order
	return tr, nil
}

// Stats reports the read's running counters.
func (t *Reader) Stats() Stats { return t.stats }

// Next returns the next trace row as a spec, io.EOF at the end of the
// trace, or the row's decode error (unless SkipMalformed, which moves on
// to the following row and counts the skip).
func (t *Reader) Next() (place.JobSpec, error) {
	for {
		rec, err := t.csv.Read()
		if err == io.EOF {
			return place.JobSpec{}, io.EOF
		}
		if err != nil {
			// A CSV-level malformed line is still a data row: keep the row
			// counter in step (on the skip path and for callers that resume
			// past the error) so later rowErr messages stay 1-based and
			// exact.
			t.row++
			if t.opts.SkipMalformed {
				t.stats.Rows++
				t.stats.Skipped++
				continue
			}
			return place.JobSpec{}, fmt.Errorf("tracefile: row %d: %w", t.row, err)
		}
		t.row++
		t.stats.Rows++
		j, err := t.decode(rec)
		if err != nil {
			if t.opts.SkipMalformed {
				t.stats.Skipped++
				continue
			}
			return place.JobSpec{}, err
		}
		t.stats.Jobs++
		return j, nil
	}
}

// ReadAll drains the remaining rows into a Workload — the batch bridge for
// traces small enough to hold. Large traces should stream through Next.
func (t *Reader) ReadAll() (place.Workload, error) {
	var w place.Workload
	for {
		j, err := t.Next()
		if err == io.EOF {
			return w, nil
		}
		if err != nil {
			return nil, err
		}
		w = append(w, j)
	}
}

// field returns column i of the record, "" when the row is too short or
// the column absent.
func field(rec []string, i int) string {
	if i < 0 || i >= len(rec) {
		return ""
	}
	return strings.TrimSpace(rec[i])
}

func (t *Reader) rowErr(format string, args ...interface{}) error {
	return fmt.Errorf("tracefile: row %d: %s", t.row, fmt.Sprintf(format, args...))
}

// decode turns one record into a spec. A row admission would reject is a
// row error, and only an accepted row moves the epoch and the
// out-of-order watermark, so a skipped row leaves no trace in later ones.
func (t *Reader) decode(rec []string) (place.JobSpec, error) {
	var j place.JobSpec

	model := field(rec, t.model)
	if model == "" {
		return j, t.rowErr("empty model")
	}
	j.Model = t.mapModel(model)
	j.Name = field(rec, t.name)

	sub := field(rec, t.submit)
	if sub == "" {
		return j, t.rowErr("empty submission time")
	}
	subNs, err := t.parseSubmitNs(sub)
	if err != nil {
		return j, t.rowErr("submission time %q: %v", sub, err)
	}
	epochNs := t.epochNs
	if !t.epochSet {
		epochNs = subNs
	}
	arrivalNs := (subNs - epochNs) / t.opts.compress()
	// A pre-epoch row (out-of-order against the very first) clamps to the
	// trace start; the pipeline's admission clock would anyway.
	j.ArrivalNs = math.Max(arrivalNs, 0)

	if s := field(rec, t.priority); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return j, t.rowErr("priority %q: %v", s, err)
		}
		j.Priority = v
	}
	if s := field(rec, t.weight); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return j, t.rowErr("weight %q: %v", s, err)
		}
		j.Weight = v
	}
	j.Steps = t.opts.defaultSteps()
	if s := field(rec, t.steps); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return j, t.rowErr("steps %q: %v", s, err)
		}
		if v > 0 { // zero-duration trace rows still run one default step
			j.Steps = v
		}
	}
	if s := field(rec, t.deadline); s != "" {
		v, err := t.parseSubmitNs(s)
		if err != nil {
			return j, t.rowErr("deadline %q: %v", s, err)
		}
		d := (v - epochNs) / t.opts.compress()
		if d > j.ArrivalNs { // a deadline at or before arrival is meaningless: drop it
			j.DeadlineNs = d
		}
	}
	if err := j.Check(t.row - 1); err != nil {
		return j, t.rowErr("%v", err)
	}

	t.epochSet, t.epochNs = true, epochNs
	if arrivalNs < t.lastNs {
		t.stats.OutOfOrder++
	} else {
		t.lastNs = arrivalNs
	}
	return j, nil
}

// parseSubmitNs decodes a submission or deadline cell to absolute
// nanoseconds (pre-epoch, pre-compression): numeric cells scale by
// TimeUnit, timestamp cells anchor on the Unix epoch.
func (t *Reader) parseSubmitNs(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		// Checked after scaling: a finite cell like 1e300 seconds
		// overflows to +Inf nanoseconds.
		ns := v * t.opts.unitNs()
		if math.IsNaN(ns) || math.IsInf(ns, 0) {
			return 0, fmt.Errorf("non-finite value")
		}
		return ns, nil
	}
	for _, layout := range timestampLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return float64(ts.UnixNano()), nil
		}
	}
	return 0, fmt.Errorf("neither a number nor a timestamp")
}

// mapModel resolves a trace model name: known spellings pass through
// canonically, unknown ones hash onto the palette with FNV-1a — stable
// across runs and readers, so replays are reproducible.
func (t *Reader) mapModel(name string) string {
	if m, ok := t.modelMemo[name]; ok {
		return m
	}
	m, err := nn.Resolve(name)
	if err != nil {
		h := fnv.New32a()
		io.WriteString(h, strings.ToLower(strings.TrimSpace(name)))
		m = t.palette[h.Sum32()%uint32(len(t.palette))]
		t.stats.MappedModels++
	}
	t.modelMemo[name] = m
	return m
}
