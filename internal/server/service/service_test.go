package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmamem/internal/experiments"
)

// newTestServer starts a daemon plus an in-process HTTP listener and
// tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	d := New(cfg)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv
}

// postJob submits a job body and returns the response.
func postJob(t *testing.T, srv *httptest.Server, body string, wait bool) (int, http.Header, []byte) {
	t.Helper()
	url := srv.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

// goldenBytes reads one file of the committed golden-report corpus.
func goldenBytes(t *testing.T, file string) []byte {
	t.Helper()
	path := filepath.Join("..", "..", "experiments", "testdata", "golden", file)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	return b
}

// testGoldenReports drives every Table 2 workload x scheme through a
// service with the given job fleet size, all submitted at once, and
// requires each response body to be byte-identical to the committed
// golden corpus.
func testGoldenReports(t *testing.T, fleet int) {
	_, srv := newTestServer(t, Config{Workers: fleet})
	for _, name := range experiments.WorkloadNames() {
		for _, scheme := range experiments.ReportSchemes() {
			name, scheme := name, scheme
			t.Run(name+"/"+scheme, func(t *testing.T) {
				t.Parallel()
				job := Job{Workload: name, Scheme: scheme}
				body, err := json.Marshal(job)
				if err != nil {
					t.Fatal(err)
				}
				code, hdr, got := postJob(t, srv, string(body), true)
				if code != http.StatusOK {
					t.Fatalf("status %d: %s", code, got)
				}
				if hdr.Get("X-Dmamem-Hash") == "" {
					t.Error("response missing the X-Dmamem-Hash header")
				}
				want := goldenBytes(t, fmt.Sprintf("%s_%s.json", strings.ToLower(name), scheme))
				if !bytes.Equal(got, want) {
					t.Errorf("service response for %s/%s is not byte-identical to the golden corpus (%d vs %d bytes)",
						name, scheme, len(got), len(want))
				}
			})
		}
	}
}

// TestServiceGoldenReports is the end-to-end acceptance gate: every
// Table 2 workload x scheme submitted over HTTP returns exactly the
// committed golden report.
func TestServiceGoldenReports(t *testing.T) {
	testGoldenReports(t, 2)
}

// TestServiceGoldenReportsParallelEngine repeats the end-to-end golden
// sweep on a fleet of four job workers, so up to four simulation
// engines run side by side in the daemon: no report may depend on the
// engines running beside it.
func TestServiceGoldenReportsParallelEngine(t *testing.T) {
	testGoldenReports(t, 4)
}

// TestServiceGoldenGridSweep submits the committed multi-channel
// figure 10 sweep as a grid job and requires the response to be
// byte-identical to its golden file — the grid path's canonical point
// serialization agrees with writeOrCompareGolden exactly.
func TestServiceGoldenGridSweep(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	body := `{"Grid":{"Name":"fig10","Workloads":["Synthetic-St"],"BusBW":[1.064e9],"Channels":[1,2,4]}}`
	code, _, got := postJob(t, srv, body, true)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	want := goldenBytes(t, "fig10_channels.json")
	if !bytes.Equal(got, want) {
		t.Errorf("grid job response is not byte-identical to fig10_channels.json (%d vs %d bytes)", len(got), len(want))
	}
}

// TestServiceJobLifecycle walks the async API: submit without wait,
// poll status, fetch the result, stream the events, and check the
// metrics endpoint counted the work.
func TestServiceJobLifecycle(t *testing.T) {
	d, srv := newTestServer(t, Config{Workers: 1})

	code, _, body := postJob(t, srv, `{"Tenant":"acme","Grid":{"Name":"noop","Points":3}}`, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if st.ID == "" || st.Tenant != "acme" || st.Hash == "" || st.Points != 3 {
		t.Fatalf("submit response incomplete: %+v", st)
	}

	// The events stream follows the job to a terminal state.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("want at least queued/running/done events, got %+v", events)
	}
	last := events[len(events)-1]
	if last.State != StatusDone {
		t.Fatalf("final event %+v, want done", last)
	}
	points := 0
	for _, ev := range events {
		if ev.State == "point" {
			points++
		}
	}
	if points != 3 {
		t.Errorf("event stream reported %d grid points, want 3", points)
	}

	// Status and result are consistent with the stream.
	code, _, body = getBody(t, srv, "/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("job status %q, want done", st.Status)
	}
	code, hdr, result := getBody(t, srv, "/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, result)
	}
	if hdr.Get("X-Dmamem-Job") != st.ID {
		t.Errorf("result job header %q, want %q", hdr.Get("X-Dmamem-Job"), st.ID)
	}
	var pts []json.RawMessage
	if err := json.Unmarshal(result, &pts); err != nil || len(pts) != 3 {
		t.Fatalf("result is not a 3-point array: %v (%s)", err, result)
	}

	// The metrics endpoint renders the counters.
	code, _, metricsBody := getBody(t, srv, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{"dmamem_jobs_submitted 1", "dmamem_runs 1", "dmamem_jobs_completed 1", "dmamem_grid_points 3"} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics output missing %q:\n%s", want, metricsBody)
		}
	}
	if got := counter(t, d, "jobs_submitted"); got != 1 {
		t.Errorf("jobs_submitted counter = %d, want 1", got)
	}
}

func getBody(t *testing.T, srv *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestServiceBadJobs holds the HTTP layer to loud, classified errors:
// every malformed submission is a 400 with Kind "bad-job" and a
// message naming the offense, never a 200 or a hung connection.
func TestServiceBadJobs(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"empty", ``, "empty body"},
		{"not-json", `]][[`, "invalid character"},
		{"unknown-field", `{"Workload":"OLTP-St","Wrokload":"typo"}`, "unknown field"},
		{"trailing", `{"Workload":"OLTP-St"} trailing`, "trailing data"},
		{"neither", `{}`, "set either Workload"},
		{"both", `{"Workload":"OLTP-St","Grid":{"Name":"noop","Points":1}}`, "submit one job per kind"},
		{"bad-workload", `{"Workload":"OLTP-XX"}`, "unknown workload"},
		{"bad-scheme", `{"Workload":"OLTP-St","Scheme":"dma-xx"}`, "unknown scheme"},
		{"bad-tech", `{"Workload":"OLTP-St","Tech":"sram-9000"}`, "unknown memory technology"},
		{"bad-grid", `{"Grid":{"Name":"fig99"}}`, "unknown grid"},
		{"empty-grid", `{"Grid":{"Name":"noop"}}`, "0 points"},
		{"version-skew", `{"Version":7,"Workload":"OLTP-St"}`, "schema version 7"},
		{"negative-duration", `{"Workload":"OLTP-St","DurationMs":-4}`, "negative DurationMs"},
		{"one-group", `{"Workload":"OLTP-St","Scheme":"dma-ta-pl","PLGroups":1}`, "PLGroups 1"},
		// Every run takes the one serial engine, so the engine-workers
		// field is gone from the schema: a job that still sets it is
		// rejected, not run with a setting it did not get.
		{"workers", `{"Workload":"OLTP-St","Workers":2}`, `unknown field "Workers"`},
		{"grid-workers", `{"Grid":{"Name":"noop","Points":1},"Workers":2}`, `unknown field "Workers"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJob(t, srv, tc.body, false)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, body)
			}
			var ae struct{ Kind, Error string }
			if err := json.Unmarshal(body, &ae); err != nil {
				t.Fatalf("error body %q: %v", body, err)
			}
			if ae.Kind != "bad-job" {
				t.Errorf("Kind %q, want bad-job", ae.Kind)
			}
			if !strings.Contains(ae.Error, tc.want) {
				t.Errorf("error %q does not mention %q", ae.Error, tc.want)
			}
		})
	}

	// The enumeration errors list the legal values — the "loud" half
	// of the contract.
	code, _, body := postJob(t, srv, `{"Workload":"nope"}`, false)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	for _, name := range experiments.WorkloadNames() {
		if !strings.Contains(string(body), name) {
			t.Errorf("unknown-workload error does not list %q: %s", name, body)
		}
	}

	// Unknown job IDs are 404s with Kind not-found on every job route.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/events"} {
		code, _, body := getBody(t, srv, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404: %s", path, code, body)
		}
	}

	// Health answers.
	code, _, _ = getBody(t, srv, "/v1/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestCanonicalHashStability pins the normalization contract the
// result cache rests on: two submissions meaning the same run hash
// identically, and any parameter that changes the result changes the
// hash.
func TestCanonicalHashStability(t *testing.T) {
	hash := func(t *testing.T, body string) string {
		t.Helper()
		j, err := DecodeJob([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := j.normalize(0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := experiments.CanonicalHash(w)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Defaults spelled out vs omitted: same canonical work.
	implicit := hash(t, `{"Workload":"OLTP-St","Scheme":"dma-ta"}`)
	explicit := hash(t, `{"Tenant":"acme","Workload":"OLTP-St","Scheme":"dma-ta","CPLimit":0.10,"DurationMs":4,"DbDurationMs":2,"Seed":1}`)
	if implicit != explicit {
		t.Errorf("equivalent jobs hash differently: %s vs %s", implicit, explicit)
	}
	// The tenant never participates in the hash (implicit above has no
	// tenant, explicit does) but every simulation parameter must.
	for _, variant := range []string{
		`{"Workload":"OLTP-St","Scheme":"dma-ta","CPLimit":0.2}`,
		`{"Workload":"OLTP-St","Scheme":"dma-ta-pl"}`,
		`{"Workload":"Synthetic-St","Scheme":"dma-ta"}`,
		`{"Workload":"OLTP-St","Scheme":"dma-ta","Seed":2}`,
		`{"Workload":"OLTP-St","Scheme":"dma-ta","Tech":"ddr4-2400"}`,
	} {
		if h := hash(t, variant); h == implicit {
			t.Errorf("variant %s hashes like the base job", variant)
		}
	}
	// A report job reads one duration: Duration for -St workloads,
	// DbDuration for -Db ones. The unread one must not split the
	// cache; the read one must.
	for _, c := range []struct{ base, unread, read string }{
		{`{"Workload":"OLTP-St"}`, `{"Workload":"OLTP-St","DbDurationMs":5}`, `{"Workload":"OLTP-St","DurationMs":5}`},
		{`{"Workload":"Synthetic-St"}`, `{"Workload":"Synthetic-St","DbDurationMs":5}`, `{"Workload":"Synthetic-St","DurationMs":5}`},
		{`{"Workload":"OLTP-Db"}`, `{"Workload":"OLTP-Db","DurationMs":5}`, `{"Workload":"OLTP-Db","DbDurationMs":5}`},
		{`{"Workload":"Synthetic-Db"}`, `{"Workload":"Synthetic-Db","DurationMs":5}`, `{"Workload":"Synthetic-Db","DbDurationMs":5}`},
	} {
		base := hash(t, c.base)
		if h := hash(t, c.unread); h != base {
			t.Errorf("%s hashes unlike %s, though the run never reads the field", c.unread, c.base)
		}
		if h := hash(t, c.read); h == base {
			t.Errorf("%s hashes like %s, though the run reads the field", c.read, c.base)
		}
	}
}
