package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opsched"
)

// miniTrace is a 4-job trace: numeric second submissions, one priority,
// one deadline 30 s after its submission.
const miniTrace = `job_name,model,submit_time,priority,steps,deadline
a,lstm,0,0,1,
b,dcgan,2,1,2,
c,lstm,5,0,1,35
d,dcgan,9,0,1,
`

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunReplaysTraceDeterministically drives the whole service through
// run: trace file in, sealed report out, twice, byte-identically.
func TestRunReplaysTraceDeterministically(t *testing.T) {
	path := writeTrace(t, miniTrace)
	render := func() string {
		var out bytes.Buffer
		args := []string{"-trace", path, "-compress", "1000", "-nodes", "2", "-snap-every", "2"}
		if err := run(args, os.Stdin, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := render()
	if !strings.Contains(first, "placement: 4 jobs over 2 nodes") {
		t.Fatalf("report missing placement header:\n%s", first)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if !strings.Contains(first, name) {
			t.Fatalf("report missing job %s:\n%s", name, first)
		}
	}
	if second := render(); second != first {
		t.Fatalf("re-run diverged:\n%s\nvs:\n%s", first, second)
	}
}

// TestRunPacedReplay covers the -speed wall-clock pacing path: 9 trace
// seconds compressed 1000x then paced at 0.05x must take >= ~100ms.
func TestRunPacedReplay(t *testing.T) {
	path := writeTrace(t, miniTrace)
	var out bytes.Buffer
	start := time.Now()
	args := []string{"-trace", path, "-compress", "1000", "-speed", "0.05", "-snap-every", "0"}
	if err := run(args, os.Stdin, &out); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("paced replay finished in %v, want >= 100ms of pacing", elapsed)
	}
}

// TestRunStdinTrace feeds the trace through stdin (a regular file fd, the
// piped-input shape) with no -trace flag.
func TestRunStdinTrace(t *testing.T) {
	path := writeTrace(t, miniTrace)
	stdin, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	var out bytes.Buffer
	if err := run([]string{"-compress", "1000", "-snap-every", "0"}, stdin, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "placement: 4 jobs") {
		t.Fatalf("stdin trace produced no report:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	var out bytes.Buffer
	cases := []struct {
		name string
		args []string
	}{
		{"nothing to serve", nil},
		{"bad flag", []string{"-no-such-flag"}},
		{"missing trace file", []string{"-trace", "does-not-exist.csv"}},
		{"bad cluster", []string{"-trace", os.DevNull, "-nodes", "0"}},
	}
	for _, tc := range cases {
		if err := run(tc.args, devnull, &out); err == nil {
			t.Errorf("%s: run succeeded, want error", tc.name)
		}
	}
}

// TestRunBadTraceFailsThePipeline: a header without a model column must
// unwind the pipeline and surface as a run error, not a hang.
func TestRunBadTraceFailsThePipeline(t *testing.T) {
	path := writeTrace(t, "who,when\nx,0\n")
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-snap-every", "0"}, os.Stdin, &out); err == nil {
		t.Fatal("bad trace header: run succeeded, want error")
	}
	malformed := writeTrace(t, "model,submit\nlstm,0\n,notanumber\ndcgan,2\n")
	if err := run([]string{"-trace", malformed, "-snap-every", "0"}, os.Stdin, &out); err == nil {
		t.Fatal("malformed row without -skip-malformed: run succeeded, want error")
	}
	out.Reset()
	if err := run([]string{"-trace", malformed, "-skip-malformed", "-snap-every", "0"}, os.Stdin, &out); err != nil {
		t.Fatalf("-skip-malformed: %v", err)
	}
	if !strings.Contains(out.String(), "placement: 2 jobs") {
		t.Fatalf("want the 2 decodable jobs placed:\n%s", out.String())
	}
}

// TestRunHTTPServiceEndToEnd exercises the live mode: submit over HTTP,
// read a snapshot, drain, and collect the sealed report.
func TestRunHTTPServiceEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for run; the race window is test-local

	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-http", addr, "-tick", "20ms", "-snap-every", "1"}, devnull, &out)
	}()

	base := "http://" + addr
	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get(base + "/snapshot")
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("service never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp.Body.Close()

	post := func(path, body string, want int) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}
	post("/jobs", `{"model":"lstm","name":"web1","priority":2}`, http.StatusAccepted).Body.Close()
	post("/jobs", `{"model":"dcgan","name":"web2","deadline_ms":2000,"steps":2}`, http.StatusAccepted).Body.Close()
	post("/jobs", `{"model":`, http.StatusBadRequest).Body.Close()

	// Wrong method on every endpoint.
	resp, err = http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	// Wait for both jobs to complete (ticks retire them), then snapshot.
	var snap opsched.StreamSnapshot
	for i := 0; snap.Completed < 2; i++ {
		if i > 200 {
			t.Fatalf("jobs never completed: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(base + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if snap.Submitted != 2 || snap.Placed != 2 {
		t.Fatalf("snapshot counts: %+v", snap)
	}
	if snap.QueueP50Ns > snap.QueueP95Ns || snap.QueueP95Ns > snap.QueueP99Ns {
		t.Fatalf("percentiles out of order: %+v", snap)
	}

	post("/drain", "", http.StatusAccepted).Body.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after drain")
	}
	report := out.String()
	if !strings.Contains(report, "web1") || !strings.Contains(report, "web2") {
		t.Fatalf("sealed report missing HTTP-submitted jobs:\n%s", report)
	}
}

// TestHandleSubmitValidation drives the submit handler directly: invalid
// specs are rejected synchronously with 400 (carrying the validation
// message) and never reach the pipeline, while a drained pipeline turns
// valid submissions away with 503.
func TestHandleSubmitValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := opsched.NewJobPipeline(ctx, opsched.PipelineConfig{
		Cluster: opsched.Cluster{Nodes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &server{p: p, start: time.Now()}
	post := func(body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec
	}

	bad := []struct {
		name, body, wantMsg string
	}{
		{"unknown model", `{"model":"gpt-17"}`, "unknown model"},
		{"unknown class", `{"model":"lstm","class":"batchy"}`, "unknown class"},
		{"slo on training", `{"model":"lstm","slo_ms":20}`, "use DeadlineNs"},
		{"multi-step inference", `{"model":"lstm","class":"inference","steps":3,"slo_ms":20}`, "one forward step"},
		{"negative weight", `{"model":"lstm","weight":-1}`, "negative weight"},
	}
	for _, tc := range bad {
		rec := post(tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.wantMsg) {
			t.Errorf("%s: body %q, want mention of %q", tc.name, rec.Body.String(), tc.wantMsg)
		}
	}
	if rec := post(`{"model":"lstm","class":"inference","slo_ms":50}`); rec.Code != http.StatusAccepted {
		t.Fatalf("valid inference request: status %d (%s), want 202", rec.Code, rec.Body.String())
	}

	s.drain()
	if rec := post(`{"model":"lstm"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", rec.Code)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestMethodGuard(t *testing.T) {
	called := false
	h := method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) { called = true })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusMethodNotAllowed || called {
		t.Fatalf("GET on POST guard: code %d, called %v", rec.Code, called)
	}
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/x", nil))
	if !called {
		t.Fatal("POST not forwarded to handler")
	}
}

func TestTraceInput(t *testing.T) {
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if rc, err := traceInput("", devnull); err != nil || rc != nil {
		t.Fatalf("char-device stdin with no -trace: got %v, %v; want nil, nil", rc, err)
	}
	if rc, err := traceInput("-", devnull); err != nil || rc != devnull {
		t.Fatalf("explicit stdin: got %v, %v", rc, err)
	}
	if _, err := traceInput(filepath.Join(t.TempDir(), "missing.csv"), devnull); err == nil {
		t.Fatal("missing file: want error")
	}
	path := writeTrace(t, miniTrace)
	rc, err := traceInput(path, devnull)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	regular, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer regular.Close()
	if rc, err := traceInput("", regular); err != nil || rc != regular {
		t.Fatalf("regular-file stdin (pipe shape): got %v, %v", rc, err)
	}
}

// TestObservabilityEndpoints drives /metrics, /healthz and /buildinfo
// through the real mux: the scrape renders valid Prometheus text carrying
// the serve-process gauges and the per-endpoint request counters, health
// flips from ok to draining, and buildinfo reports the Go toolchain.
func TestObservabilityEndpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := opsched.NewMetricsRegistry()
	p, err := opsched.NewJobPipeline(ctx, opsched.PipelineConfig{
		Cluster: opsched.Cluster{Nodes: 1},
		Options: opsched.PlaceOptions{Obs: &opsched.Observer{Metrics: reg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(p, reg)
	mux := s.mux()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec := get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q, want Prometheus text v0.0.4", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE opsched_serve_goroutines gauge",
		"opsched_serve_uptime_seconds",
		`opsched_serve_http_requests_total{endpoint="healthz"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every line is either a comment or name{labels} value — the shape a
	// Prometheus scraper accepts.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	rec = get("/buildinfo")
	if rec.Code != http.StatusOK {
		t.Fatalf("/buildinfo = %d", rec.Code)
	}
	var bi struct {
		GoVersion string `json:"go_version"`
		Module    string `json:"module"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bi); err != nil {
		t.Fatalf("/buildinfo is not JSON: %v\n%s", err, rec.Body.String())
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("buildinfo go_version = %q", bi.GoVersion)
	}

	s.drain()
	if rec := get("/healthz"); !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/healthz after drain = %q, want draining", rec.Body.String())
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSetupLogging: the -log-level flag accepts the four slog names and
// rejects junk.
func TestSetupLogging(t *testing.T) {
	for _, lvl := range []string{"debug", "info", "warn", "error"} {
		if err := setupLogging(lvl); err != nil {
			t.Errorf("level %q rejected: %v", lvl, err)
		}
	}
	if err := setupLogging("chatty"); err == nil {
		t.Error("bogus level accepted")
	}
}

// TestHTTPServerDropsSlowHeaders: a client that sends a partial request
// header and then goes quiet is disconnected once the header deadline
// passes, instead of holding the connection open forever.
func TestHTTPServerDropsSlowHeaders(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts header=%v idle=%v, want %v / %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	// Same mechanism, shorter deadline, so the test stays fast.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No blank line: the header block never ends.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: opsched\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds the half-sent request after %v", time.Since(start))
	}
}
