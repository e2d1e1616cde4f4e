package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// newRetaining starts a daemon that keeps only its last n finished
// jobs, plus its HTTP listener, and tears both down with the test.
func newRetaining(t *testing.T, cfg Config, n int) (*Daemon, *httptest.Server) {
	t.Helper()
	d := newPaused(cfg)
	d.finished = make([]finishedJob, n)
	d.startWorkers(d.cfg.Workers)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv
}

// gauges reads the named lines of /v1/metrics as integers.
func gauges(t *testing.T, srv *httptest.Server) map[string]int {
	t.Helper()
	code, _, body := getBody(t, srv, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	out := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, val, _ := strings.Cut(line, " ")
		n, err := strconv.Atoi(val)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = n
	}
	return out
}

// wantError asserts an HTTP error status with its JSON Kind and the
// given words in the message.
func wantError(t *testing.T, what string, code int, body []byte, wantCode int, wantKind string, words ...string) {
	t.Helper()
	var ae struct{ Kind, Error string }
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("%s: error body %q: %v", what, body, err)
	}
	if code != wantCode || ae.Kind != wantKind {
		t.Errorf("%s: %d %s, want %d %s: %s", what, code, ae.Kind, wantCode, wantKind, ae.Error)
	}
	for _, w := range words {
		if !strings.Contains(ae.Error, w) {
			t.Errorf("%s: error %q does not say %q", what, ae.Error, w)
		}
	}
}

// TestRetiredJobAnswersGone fills a daemon that keeps two finished
// jobs with three: the first ID then answers 410 retired on every job
// route, naming the bound and saying to resubmit, while IDs the daemon
// never issued stay 404. Resubmitting the retired job answers it again
// from the cache, and the retention gauges count what is kept.
func TestRetiredJobAnswersGone(t *testing.T) {
	_, srv := newRetaining(t, Config{Workers: 1}, 2)
	bodies := []string{
		`{"Grid":{"Name":"noop","Points":1}}`,
		`{"Grid":{"Name":"noop","Points":2}}`,
		`{"Grid":{"Name":"noop","Points":3}}`,
	}
	var results [][]byte
	for _, b := range bodies {
		code, hdr, result := postJob(t, srv, b, true)
		if code != http.StatusOK {
			t.Fatalf("submit %s: %d: %s", b, code, result)
		}
		results = append(results, result)
		if id := hdr.Get("X-Dmamem-Job"); id != fmt.Sprintf("job-%06d", len(results)) {
			t.Fatalf("job %d has ID %q", len(results), id)
		}
	}

	for _, path := range []string{"/v1/jobs/job-000001", "/v1/jobs/job-000001/result", "/v1/jobs/job-000001/events"} {
		code, _, body := getBody(t, srv, path)
		wantError(t, "GET "+path, code, body, http.StatusGone, "retired", "job-000001", "last 2 finished jobs", "resubmit")
	}
	resp, err := http.Post(srv.URL+"/v1/jobs/job-000001/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelBody bytes.Buffer
	cancelBody.ReadFrom(resp.Body)
	resp.Body.Close()
	wantError(t, "cancel job-000001", resp.StatusCode, cancelBody.Bytes(), http.StatusGone, "retired")

	for _, id := range []string{"job-000002", "job-000003"} {
		if code, _, body := getBody(t, srv, "/v1/jobs/"+id+"/result"); code != http.StatusOK {
			t.Errorf("GET %s/result: %d: %s", id, code, body)
		}
	}
	// Never issued: past the last ID, before the first, and spellings
	// of an issued number that are not its ID.
	for _, id := range []string{"job-000004", "job-000000", "job-1", "job-0000001", "job-+00001", "bogus"} {
		for _, suffix := range []string{"", "/result", "/events"} {
			code, _, body := getBody(t, srv, "/v1/jobs/"+id+suffix)
			wantError(t, "GET "+id+suffix, code, body, http.StatusNotFound, "not-found", id)
		}
	}

	g := gauges(t, srv)
	if g["dmamem_retained_jobs"] != 2 {
		t.Errorf("dmamem_retained_jobs = %d, want 2", g["dmamem_retained_jobs"])
	}
	if want := len(results[1]) + len(results[2]); g["dmamem_retained_result_bytes"] != want {
		t.Errorf("dmamem_retained_result_bytes = %d, want %d", g["dmamem_retained_result_bytes"], want)
	}
	if want := len(results[0]) + len(results[1]) + len(results[2]); g["dmamem_cache_bytes"] != want {
		t.Errorf("dmamem_cache_bytes = %d, want %d", g["dmamem_cache_bytes"], want)
	}

	code, hdr, again := postJob(t, srv, bodies[0], true)
	if code != http.StatusOK || hdr.Get("X-Dmamem-Cache") != "hit" || !bytes.Equal(again, results[0]) {
		t.Errorf("resubmitting the retired job: %d, cache %q, same bytes %v", code, hdr.Get("X-Dmamem-Cache"), bytes.Equal(again, results[0]))
	}
}

// TestRejectedSubmissionTakesNoID holds the 404/410 split to its
// premise: every ID up to the last one issued names an accepted job,
// because a submission rejected at admission takes no number.
func TestRejectedSubmissionTakesNoID(t *testing.T) {
	d := newPaused(Config{TenantQuota: 1})
	defer d.Close()
	first, err := submitJob(d, noopJob("greedy", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitJob(d, noopJob("greedy", 2)); err == nil {
		t.Fatal("second submission admitted over a quota of 1")
	}
	next, err := submitJob(d, noopJob("polite", 3))
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "job-000001" || next.ID != "job-000002" {
		t.Errorf("IDs %s, %s around a rejection, want job-000001, job-000002", first.ID, next.ID)
	}
	if _, err := d.get("job-000003"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("status of an ID never issued: %v, want an unknown-job error", err)
	}
}

// TestWaitAnswersItsOwnJob submits cache hits with ?wait=1 from
// several clients at once to a daemon that keeps one finished job, so
// each job is retired as soon as any other finishes. Every submitter
// must still get its own answer: the handler answers from the job it
// submitted, not by looking the ID up again.
func TestWaitAnswersItsOwnJob(t *testing.T) {
	_, srv := newRetaining(t, Config{Workers: 2}, 1)
	const kinds, clients, each = 4, 8, 250
	want := make([][]byte, kinds)
	body := func(k int) string { return fmt.Sprintf(`{"Grid":{"Name":"noop","Points":%d}}`, k+1) }
	for k := range want {
		code, _, result := postJob(t, srv, body(k), true)
		if code != http.StatusOK {
			t.Fatalf("warming %s: %d: %s", body(k), code, result)
		}
		want[k] = result
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients*each)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := (c + i) % kinds
				resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body(k)))
				if err != nil {
					errs <- err.Error()
					return
				}
				var got bytes.Buffer
				got.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want[k]) {
					errs <- fmt.Sprintf("%s: %d: %s", body(k), resp.StatusCode, bytes.TrimSpace(got.Bytes()))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	n := 0
	for e := range errs {
		if n++; n <= 3 {
			t.Error(e)
		}
	}
	if n > 3 {
		t.Errorf("... %d failed submissions in all", n)
	}
}

// TestSoakRetentionFlat pushes 2,000 and then 20,000 more jobs through
// the HTTP front end, one cold job in eight, and requires the live
// heap after a full GC to grow by less than a bound that does not
// scale with the job count, and the retained-jobs gauge never to pass
// the retention bound. A daemon that kept every finished job grew by
// 33 MB over those 20,000 jobs.
//
// It is gated like the flat-memory replay guard: set DMAMEM_SOAK=1
// (CI runs it as a dedicated step, without the race detector, which
// skews heap sizes).
func TestSoakRetentionFlat(t *testing.T) {
	if os.Getenv("DMAMEM_SOAK") == "" {
		t.Skip("set DMAMEM_SOAK=1 to run the daemon retention soak (22,000 jobs over HTTP)")
	}
	const bound = 2 << 20
	d, srv := newTestServer(t, Config{Workers: 2})
	client := &http.Client{}
	hit := `{"Tenant":"soak","Grid":{"Name":"noop","Points":32}}`
	cold := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			body := hit
			if i%8 == 7 {
				// A fresh seed is a fresh hash: a simulation-free cold
				// job whose answer the cache must make room for.
				cold++
				body = fmt.Sprintf(`{"Tenant":"soak","Seed":%d,"Grid":{"Name":"noop","Points":32}}`, 1000+cold)
			}
			resp, err := client.Post(srv.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			b.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %d: %d: %s", i, resp.StatusCode, b.Bytes())
			}
			if i%500 == 0 {
				if g := gauges(t, srv); g["dmamem_retained_jobs"] > retainJobs || g["dmamem_cache_bytes"] > DefaultCacheBytes {
					t.Fatalf("after job %d: retained_jobs %d (bound %d), cache_bytes %d (budget %d)",
						i, g["dmamem_retained_jobs"], retainJobs, g["dmamem_cache_bytes"], DefaultCacheBytes)
				}
			}
		}
	}
	live := func() uint64 {
		client.CloseIdleConnections()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	push(2000)
	before := live()
	push(20000)
	after := live()
	jobs, resultBytes, cacheBytes := d.retained()
	t.Logf("live heap %d -> %d bytes (%+d) over 20,000 jobs; retained %d jobs, %d result bytes, %d cache bytes",
		before, after, int64(after)-int64(before), jobs, resultBytes, cacheBytes)
	if after > before+bound {
		t.Errorf("live heap grew %d bytes over 20,000 jobs, want under %d: the daemon keeps what it has answered", after-before, bound)
	}
	if jobs != retainJobs {
		t.Errorf("retained %d finished jobs, want the bound %d", jobs, retainJobs)
	}
}
