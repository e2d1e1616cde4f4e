package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"dmamem/internal/server/service"
)

func TestParseWeights(t *testing.T) {
	got, err := parseWeights("acme=2,batch=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"acme": 2, "batch": 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseWeights = %v, want %v", got, want)
	}
	if got, err := parseWeights(""); err != nil || got != nil {
		t.Errorf("empty weights: %v, %v", got, err)
	}
	for _, bad := range []string{"acme", "acme=", "acme=zero", "acme=-1", "acme=0", "=2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}

// TestRunRejectsBadFlags holds the command to the front end's exit
// rule: a bad flag, a stray argument or the retired -cache entry bound
// exits 2 before the daemon starts; a listen failure exits 1. A value
// that service.Config would silently replace with its default (a
// fleet or per-job budget below 1, a zero bound) is a bad flag too.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-weights", "acme=nope"}, 2, `bad -weights value "nope"`},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"-cache", "256"}, 2, "flag provided but not defined: -cache"},
		{[]string{"-listen", "127.0.0.1:0", "extra"}, 2, `stray arguments ["extra"]`},
		{[]string{"-listen", "127.0.0.1:notaport"}, 1, "dmamem-serve: listen tcp"},
		{[]string{"-workers", "0"}, 2, "-workers 0: want at least 1"},
		{[]string{"-workers", "-3"}, 2, "-workers -3: want at least 1"},
		{[]string{"-point-parallel", "-4"}, 2, "-point-parallel -4: want at least 1"},
		{[]string{"-point-parallel", "0"}, 2, "-point-parallel 0: want at least 1"},
		{[]string{"-quota", "0"}, 2, "-quota 0: want a positive bound"},
		{[]string{"-cache-bytes", "0"}, 2, "-cache-bytes 0: want a positive budget"},
		{[]string{"-max-grid-points", "0"}, 2, "-max-grid-points 0: want a positive bound"},
	} {
		var stderr strings.Builder
		if code := run(tc.args, &stderr, nil); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("dmamem-serve %q: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}

// TestEveryFlagIsRead sets each flag to a valid value away from its
// default and requires the listen address or the daemon configuration
// the flags resolve to to change: no flag is accepted and then
// ignored. A flag added without a case fails the test.
func TestEveryFlagIsRead(t *testing.T) {
	values := map[string]string{
		"listen":          "127.0.0.1:9",
		"workers":         "3",
		"quota":           "4",
		"weights":         "acme=2",
		"cache-bytes":     "1024",
		"point-parallel":  "2",
		"max-grid-points": "10",
	}
	resolve := func(args ...string) (string, service.Config) {
		fs, config := command(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		listen, cfg, err := config()
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return listen, cfg
	}
	refListen, refCfg := resolve()
	fs, _ := command(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		v, ok := values[f.Name]
		if !ok {
			t.Errorf("-%s has no case saying what it changes", f.Name)
			return
		}
		listen, cfg := resolve("-" + f.Name + "=" + v)
		if listen == refListen && reflect.DeepEqual(cfg, refCfg) {
			t.Errorf("-%s=%s resolves to the same listen address and configuration as the default: the flag is ignored", f.Name, v)
		}
	})
}

// TestRunEndToEnd drives the real daemon entrypoint: run() on an
// ephemeral port, a grid job over loopback HTTP, a metrics read, then
// SIGINT and a clean exit — the same lifecycle the CI smoke step
// exercises against the built binary.
func TestRunEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "1", "-quota", "4", "-weights", "acme=2"}, io.Discard, func(addr string) {
			ready <- addr
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("daemon exited %d before ready", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	body := `{"Tenant":"acme","Grid":{"Name":"noop","Points":3}}`
	resp, err = http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	result, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid job = %d (%s), want 200", resp.StatusCode, result)
	}
	var points []map[string]any
	if err := json.Unmarshal(result, &points); err != nil {
		t.Fatalf("grid result is not a JSON array: %v\n%s", err, result)
	}
	if len(points) != 3 {
		t.Fatalf("grid result has %d points, want 3", len(points))
	}

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"dmamem_jobs_completed 1", "dmamem_retained_jobs 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d after SIGINT, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGINT")
	}
}
