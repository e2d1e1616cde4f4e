package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmamem"
)

// TestValidateConcurrency pins the rejection of non-positive
// -parallel/-workers values and the wording the user sees: the flag
// name, the bad value, and what the minimum means.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		parallel, workers int
		wantErr           string
	}{
		{1, 1, ""},
		{8, 4, ""},
		{0, 1, "-parallel 0 must be at least 1"},
		{-1, 1, "-parallel -1 must be at least 1"},
		{1, 0, "-workers 0 must be at least 1"},
		{1, -4, "-workers -4 must be at least 1"},
		{-1, -1, "-parallel -1 must be at least 1"},
	}
	for _, tc := range cases {
		err := validateConcurrency(tc.parallel, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateConcurrency(%d, %d) = %v, want nil", tc.parallel, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateConcurrency(%d, %d) = %v, want error containing %q",
				tc.parallel, tc.workers, err, tc.wantErr)
		}
	}
}

// TestValidateEpoch pins the -epoch flag's guard rails: negative
// periods are rejected outright, and a positive period without the
// parallel engine is rejected instead of silently ignored.
func TestValidateEpoch(t *testing.T) {
	cases := []struct {
		epoch   time.Duration
		workers int
		wantErr string
	}{
		{0, 1, ""},
		{0, 4, ""},
		{50 * time.Microsecond, 2, ""},
		{time.Millisecond, 8, ""},
		{-time.Microsecond, 4, "must be nonnegative"},
		{50 * time.Microsecond, 1, "needs the parallel engine"},
	}
	for _, tc := range cases {
		err := validateEpoch(tc.epoch, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateEpoch(%v, %d) = %v, want nil", tc.epoch, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateEpoch(%v, %d) = %v, want error containing %q",
				tc.epoch, tc.workers, err, tc.wantErr)
		}
	}
}

// TestParseTech pins the -tech flag handling: values route through
// the shared tech-list parser (trimming, case folding, registry
// validation), the empty flag means the default technology, and lists
// are rejected with a pointer at dmamem-bench.
func TestParseTech(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr string
	}{
		{"", "", ""},
		{"  ", "", ""},
		{"rdram", "rdram", ""},
		{" DDR4-2400 ", "ddr4-2400", ""},
		{"sram", "", "unknown memory technology"},
		{"ddr4-2400,lpddr4", "", "dmamem-sim runs one"},
	}
	for _, tc := range cases {
		got, err := parseTech(tc.in)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("parseTech(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseTech(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestEngineWorkers pins the flag→config mapping: -workers 1 keeps
// Simulation.Workers at 0 (the serial reference engine), higher counts
// pass through to the parallel engine.
func TestEngineWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 0}, {2, 2}, {8, 8}} {
		if got := engineWorkers(tc.in); got != tc.want {
			t.Errorf("engineWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestValidateTraceFlags pins the -trace guard: generator flags the
// user set explicitly are named and rejected, while their defaults
// (never visited by flag.Visit) pass silently.
func TestValidateTraceFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-seed", "3", "-duration", "5ms"}, ""},
		{[]string{"-trace", "t.dmt"}, ""},
		{[]string{"-trace", "t.dmt", "-cp-limit", "0.2"}, ""},
		{[]string{"-trace", "t.dmt", "-seed", "1"}, "so -seed would be ignored"},
		{[]string{"-workload", "oltp-st", "-trace", "t.dmt", "-duration", "1s"}, "so -workload, -duration would be ignored"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("dmamem-sim", flag.ContinueOnError)
		traceFile := fs.String("trace", "", "")
		fs.String("workload", "synthetic-st", "")
		fs.Duration("duration", 100*time.Millisecond, "")
		fs.Uint64("seed", 1, "")
		fs.Float64("cp-limit", 0.10, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		err := validateTraceFlags(*traceFile, set)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v, want nil", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestParseScheme pins the -scheme mapping and the rejection wording,
// which lists the valid names.
func TestParseScheme(t *testing.T) {
	for name, want := range map[string]dmamem.Technique{
		"baseline":  dmamem.Baseline,
		"dma-ta":    dmamem.TemporalAlignment,
		"dma-ta-pl": dmamem.TemporalAlignmentWithLayout,
		"no-pm":     dmamem.NoPowerManagement,
	} {
		if got, err := parseScheme(name); err != nil || got != want {
			t.Errorf("parseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseScheme("dma-tap"); err == nil || !strings.Contains(err.Error(), `unknown -scheme "dma-tap" (valid: baseline,`) {
		t.Errorf("parseScheme(dma-tap) = %v", err)
	}
}

// TestMain lets a test re-execute this binary as dmamem-sim: with
// DMAMEM_SIM_ARGS set, the process runs main on those arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("DMAMEM_SIM_ARGS"); args != "" {
		os.Args = append([]string{"dmamem-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs dmamem-sim with the space-separated args in a child
// process and returns what it wrote and how it exited.
func runSim(t *testing.T, args string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DMAMEM_SIM_ARGS="+args)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestBadFlagsExitBeforeWork runs the command itself: generator flags
// beside -trace, an unknown -scheme and a simulation Validate rejects
// (too many groups, a non-finite float) must exit 2 naming the flag or
// field, before a trace is generated or read (nothing on stdout; the
// -trace path need not exist).
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for args, want := range map[string]string{
		"-trace missing.dmt -seed 7":  "so -seed would be ignored",
		"-scheme bogus":               `unknown -scheme "bogus"`,
		"-groups 200":                 "PLGroups 200 out of range",
		"-cp-limit NaN":               "CPLimit NaN is not a finite number",
		"-cp-limit +Inf":              "CPLimit +Inf is not a finite number",
		"-channels 4 -channel-bw NaN": "ChannelBandwidth NaN is not a finite number",
	} {
		stdout, stderr, err := runSim(t, args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dmamem-sim %s: err %v, want exit status 2", args, err)
			continue
		}
		if !strings.Contains(stderr, want) {
			t.Errorf("dmamem-sim %s: stderr %q, want %q", args, stderr, want)
		}
		if stdout != "" {
			t.Errorf("dmamem-sim %s: stdout %q, want nothing", args, stdout)
		}
	}
}

// TestJSONStdoutIsOneDocument runs the command with -json on a
// generated OLTP-St trace and on the same trace replayed from the .dmt
// file SaveFile wrote. Each stdout must parse as exactly one JSON
// document, and the two must be equal bytes: the file keeps everything
// the report depends on, the client-response metadata behind the
// derived mu included.
func TestJSONStdoutIsOneDocument(t *testing.T) {
	tr, err := dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oltp-st.dmt")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, args := range []string{"-json -workload oltp-st -duration 10ms", "-json -trace " + path} {
		stdout, stderr, err := runSim(t, args)
		if err != nil {
			t.Fatalf("dmamem-sim %s: %v\n%s", args, err, stderr)
		}
		dec := json.NewDecoder(strings.NewReader(stdout))
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("dmamem-sim %s: stdout is not JSON: %v\n%s", args, err, stdout)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("dmamem-sim %s: stdout holds more than one JSON document:\n%s", args, stdout)
		}
		docs = append(docs, stdout)
	}
	if docs[0] != docs[1] {
		t.Fatalf("replayed .dmt report differs from the generated trace's:\ngenerated: %s\nreplayed:  %s", docs[0], docs[1])
	}
}

// TestNonDMTTraceFails pins that -trace reads only .dmt containers:
// any other file exits non-zero on the container's bad-magic error
// with nothing on stdout.
func TestNonDMTTraceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, append([]byte("DMAT"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runSim(t, "-trace "+path)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("dmamem-sim -trace %s: err %v, want a non-zero exit", path, err)
	}
	if !strings.Contains(stderr, "bad magic") || stdout != "" {
		t.Fatalf("stdout %q, stderr %q; want only the bad-magic error", stdout, stderr)
	}
}
